// Package hw simulates the hardware platform Mercury runs on: CPUs with
// x86-style privileged state (privilege levels, control registers,
// descriptor tables), physical memory divided into 4 KB frames, a hardware
// page-table walker with a TLB, local APICs with inter-processor
// interrupts, and simple disk/NIC/timer devices.
//
// Every privileged or timed operation advances a per-CPU cycle clock
// (the simulated TSC). All latencies reported by the benchmark harness are
// read from this clock, mirroring how the paper reads RDTSC around mode
// switches and benchmark loops. The cycle costs of primitive operations
// live in CostModel and are calibrated once against the paper's native
// Linux column; every other configuration's numbers emerge from the
// mechanisms built on top (hypercalls, traps, ring hops, deprivileging).
// CPUs run together under Machine.Run, which lets only the CPU with the
// lowest clock execute, so SMP runs are as deterministic as UP ones.
package hw
