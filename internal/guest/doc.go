// Package guest implements the paravirtualizable operating system kernel
// Mercury self-virtualizes: processes with fork/exec, a scheduler,
// demand-paged address spaces over simulated page tables, a page cache
// and filesystem, block and network drivers in both native and split
// frontend variants, and a minimal network stack.
//
// Every virtualization-sensitive operation the kernel performs goes
// through its current virtualization object (internal/vo), so the same
// kernel runs on bare hardware (N-L, M-N), as a Xen driver domain (X-0,
// M-V) or as an unprivileged domain with split I/O (X-U, M-U), and can be
// relocated between those modes while running.
//
// MQBlockFrontend is the one block frontend of the §5.2 split-device
// datapath (DESIGN.md §16), used two ways. Asynchronously, a request
// server drives per-queue xen.IORing submission with coalesced
// doorbells (Kick rings only the queues whose push crossed the
// backend's advertised wake mark; KickStalled covers sub-threshold
// tails) and a Drain loop that polls responses with the FINAL-CHECK
// re-arm, so a suppressed doorbell can never strand a completion.
// Synchronously, it is the X-U/M-U kernel's BlockDriver: Submit runs
// the same push/doorbell/poll calls on the calling CPU's queue until
// every block completes. FrontendNet is netfront over an IORing pair.
package guest
