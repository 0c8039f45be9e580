// Package divergence is the observatory that keeps the simulation
// honest about its virtualization tax. It runs one seeded workload
// three times — on native Linux (N-L), on Mercury in native mode (M-N),
// and on Mercury in virtual mode (M-V) — with probes threaded through
// internal/hw, internal/guest, internal/vo and internal/xen, and emits
// a transparency report: for every probe, the native count, the virtual
// count, the delta, and the percentage tax.
//
// The probes split into two classes. Logical counts (syscalls, forks,
// page faults, PTE writes, MMU updates, fault bounces) are marked exact:
// the workload seed alone determines them, whatever the timing. The
// rest (cycles, timer interrupts, context switches, TLB flushes,
// hypercalls that scale with ticks) are time-derived. Both classes come
// from a deterministic simulation, so the committed
// BENCH_divergence.json is reproduced exactly, value for value.
//
// A second set of probes decomposes the mode switch itself: the harness
// drives M-N across two attach/detach round trips, with resident
// processes holding page-table trees for the attach to validate, under
// both the recompute and journal tracking policies, and records the
// per-phase cycle breakdown, TLB-flush activity, and dirty-frame journal
// statistics. This is the repository's one switch phase breakdown.
//
// The headline number is the native tax: the M-N workload slowdown over
// N-L. The paper's claim is that Mercury's native mode costs on the
// order of 2–3% (§7.2); NativeTaxBudgetPct fixes that ceiling and
// CheckBudget fails when a change pushes the measured tax past it, so
// the claim is CI-enforced rather than aspirational.
package divergence
