// Package mc is an explicit-state model checker for Mercury's
// mode-switch protocol (§4.3, §5.1.1, §5.4).
//
// The engine's dependability story rests on one coordination path: the
// commit gate over the virtualization object's entry/exit refcount, the
// deferral/retry timer behind it, and the SMP IPI rendezvous that parks
// every application processor before the control processor applies the
// state-transfer functions. Chaos campaigns probe that path with seeded
// schedules; this package closes the gap ROADMAP item 5 left open by
// enumerating *every* interleaving of a reduced Mercury machine — K
// CPUs, in-flight VO operations, the retry timer, rendezvous
// park/unpark, and dirty-journal arm/replay — and checking, in each
// reachable state, the same invariants internal/core/invariants.go
// codifies for the full system:
//
//   - the commit gate: a switch commits only at refcount zero with
//     every AP parked (VioCommitRefs, VioCommitUnparked);
//   - the refcount is never negative (VioNegativeRefs);
//   - no torn mode: whenever the machine is quiescent, every CPU's
//     loaded control state agrees with the committed mode
//     (VioTornMode);
//   - journal fidelity: no native-mode store lands where the attached
//     VMM cannot see it (VioLostWrite);
//   - bounded liveness: every deferred switch eventually commits or
//     exhausts MaxDeferrals — any state with no enabled action that is
//     not a clean terminal state is reported (VioDeadlock).
//
// The model is not a transcription of the protocol: internal/core's
// switch machinery was refactored so its atomic steps are named
// (core.SwitchStep) and its gate/retry decisions are pure functions
// (core.CommitGateOpen, core.DeferVerdict), and the reduced machine
// executes those same functions. A conformance test in internal/core
// records the production ISR's step sequence through a StepObserver and
// checks it against the model's control-processor projection.
//
// Exploration is depth-first with full state hashing and an
// iterative-deepening bound that yields minimal counterexamples.
// Seeded regressions — the PR-3 TOCTOU commit-gate revert and an
// injected rendezvous no-wait bug — gate CI: the checker must
// rediscover both mechanically. Every counterexample is checked with
// Replay, and FormatTrace renders it step by step with the machine
// state after each action, which is what `mercuryctl mc -trace` prints.
package mc
