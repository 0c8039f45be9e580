// Package chaos is Mercury's deterministic fault-injection framework:
// a registry of seeded fault injectors spanning the guest kernel, the
// pre-cached VMM, and the simulated hardware, plus a campaign runner
// (Run) that interleaves faults, workloads, and attach/detach cycles
// under a seeded rand and verifies core.(*Mercury).CheckInvariants
// after every step.
//
// Every fault declares how Mercury is supposed to notice it:
//
//   - DetectInvariant: the system-wide invariant checker reports it;
//     removing the fault restores a clean check.
//   - DetectSensor: a healing sensor (§6.2) trips; the self-healing
//     path (or its evacuation escalation) repairs it.
//   - DetectSwitch: the failure-resistant mode switch (§8) refuses to
//     commit — validation rejects the state and rolls back, or the
//     deferral budget reports starvation.
//
// The same seed always produces the same episode sequence: injectors
// draw every random choice (victim frames, sensors, interleaving) from
// the campaign's rand.Rand, and the simulation itself is cycle-
// deterministic on any CPU count.
//
// Optional environments gate extra fault classes into the rotation:
// a standby host (Config.Standby) adds the migration faults behind
// the txn-rollback detector, a fork store (Config.Fork) the
// corruption/ref-leak/pin faults behind store-audit, and a
// split-device node (Config.IO) the ring-stall and doorbell-lost
// faults behind the backend's progress audit (DetectIO).
package chaos
