// Package xen implements the full-fledged VMM substrate Mercury attaches
// and detaches: domains, hypercalls, per-frame ownership/type/count
// accounting with direct-mode paging, event channels, grant-mapped shared
// I/O rings with backend drivers, and a simple domain scheduler. It is a
// from-scratch reimplementation of the Xen 3.0.x mechanisms the paper's
// prototype relies on, reduced to the parts that determine behaviour and
// cost.
//
// The split-device datapath (paper §5.2) is one mechanism: IORing
// queues moving request bursts under one charge, with event-index
// doorbell suppression and a coalescing re-arm threshold
// (FinishRequestConsume's FINAL CHECK prevents lost wakeups; threshold
// 1 is the classic Xen protocol). BlkMQBackend serves them with
// batched all-or-nothing grant mapping (GrantMapBatch, one idempotent
// unmap per burst), adjacent-block merging, an optional write-behind
// buffer cache (the §7.3 dbench effect), a stall-detecting progress
// audit, and service either from doorbell upcalls or from the driver
// domain's scheduler slice (Domain.BackgroundWork). NetBackend carries
// netif TX/RX over an IORing pair. See DESIGN.md §16 for the protocol.
package xen
