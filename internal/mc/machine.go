package mc

import (
	"fmt"

	"repro/internal/core"
)

// The reduced Mercury machine: just enough state to express every
// interleaving of the mode-switch protocol. CPU 0 is the control
// processor (CP) executing the switch ISR's atomic steps; CPUs 1..K-1
// are application processors (APs) that park at the rendezvous; workers
// are in-flight virtualization-object operations (enter → sensitive
// store → exit) pinned to CPUs; the environment raises switch requests
// and fires the deferral/retry timer. All cycle accounting, descriptor
// tables and frame contents are abstracted away — what remains is the
// coordination skeleton whose interleavings the checker enumerates.
//
// The gate and retry decisions are the production functions
// (core.CommitGateOpen, core.DeferVerdict), not copies: a divergence
// between model and engine on those decisions is impossible by
// construction.

// MaxCPUs bounds K (CPU 0 is the CP; the fixed arrays keep State
// comparable and cheaply hashable).
const MaxCPUs = 4

// MaxWorkers bounds the number of concurrently modeled VO operations.
const MaxWorkers = 4

// jCap is the reduced dirty-journal capacity: replaying more than jCap
// recorded slots models the production ring-overflow fallback to a full
// recompute (same post-state, so the model folds the two paths).
const jCap = 3

// Reduced modes: the protocol's coordination behaviour only depends on
// which side of the native/virtual line each transition crosses.
const (
	modeNative  uint8 = 0
	modeVirtual uint8 = 1
)

// CP program locations.
const (
	cpIdle        uint8 = iota // no switch ISR in flight
	cpGate                     // ISR entered; about to read the commit gate
	cpGather                   // IPIs sent; waiting for every AP to park
	cpRecheck                  // APs parked; about to re-read the gate
	cpCommitBegin              // state transfer starting (torn window opens)
	cpCommitEnd                // publishing the new mode
	cpWaitDone                 // released; waiting for every AP to resume
)

// AP program locations.
const (
	apRunning uint8 = iota // executing user/kernel code; IPI may be pending
	apParked               // checked in at the rendezvous, spinning
	apResumed              // released and reloaded; CP has not finished yet
)

// Worker program locations (one VO operation = enter, write, exit).
const (
	wIdle  uint8 = iota // between operations
	wIn                 // entered: holds one VO reference
	wWrote              // performed its sensitive store; exit pending
)

// State is one reduced-machine configuration. All fields are bounded so
// the whole struct packs into a fixed-size hash key.
type State struct {
	Mode    uint8 // committed global mode
	Pending int8  // requested target mode; -1 none
	Target  uint8 // target APs reload at release (reset to old mode on abort)

	Requests  uint8 // environment switch requests not yet raised
	Refs      int8  // VO entry/exit refcount
	Deferrals int8  // deferrals of the current request

	TimerArmed bool // retry timer armed
	IPISent    bool // rendezvous IPIs posted, APs not yet released
	Released   bool // CP released the rendezvous
	Committing bool // between commit-begin and commit-end (torn window)
	Aborting   bool // release is an abort (recheck found the gate shut)

	CP      uint8          // CP program location
	AP      [MaxCPUs]uint8 // AP program locations (index 1..K-1)
	CPUMode [MaxCPUs]uint8 // per-CPU loaded control state

	W     [MaxWorkers]uint8 // worker program locations
	WMode [MaxWorkers]uint8 // mode each in-flight worker entered under
	WOps  [MaxWorkers]uint8 // operations each worker still has to run

	JArmed bool  // dirty journal armed (frozen frame table, native mode)
	JDirty uint8 // journaled slots, saturating at jCap+1 (overflow)

	LostWrite bool // a store landed where the attached VMM cannot see it
}

// Bug selects a seeded protocol regression for the checker to
// rediscover. The clean protocol (BugNone) must be violation-free.
type Bug uint8

const (
	// BugNone is the shipped protocol.
	BugNone Bug = iota
	// BugTOCTOU reverts the PR-3 fix: the CP skips the post-rendezvous
	// gate recheck, so an operation that entered the VO between the
	// first gate read and its CPU parking is committed over while it
	// still holds the refcount.
	BugTOCTOU
	// BugRendezvous makes the CP trust a stale ready count: it
	// proceeds past the rendezvous gather without waiting for every AP
	// to park, so the commit can race an AP still executing.
	BugRendezvous
)

func (b Bug) String() string {
	switch b {
	case BugNone:
		return "none"
	case BugTOCTOU:
		return "toctou"
	case BugRendezvous:
		return "rendezvous"
	}
	return fmt.Sprintf("bug%d", uint8(b))
}

// MarshalText spells the bug by name in JSON.
func (b Bug) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// ParseBug maps a CLI spelling to a seeded bug.
func ParseBug(s string) (Bug, error) {
	for b := BugNone; b <= BugRendezvous; b++ {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("mc: unknown seeded bug %q (want none, toctou or rendezvous)", s)
}

// Violation classifies an invariant breach; each maps to a clause of
// core.(*Mercury).CheckInvariants on the full system.
type Violation uint8

const (
	VioNone Violation = iota
	// VioCommitRefs: the commit ran with the VO refcount held — the
	// §5.1.1 gate ("engine quiescence" in CheckInvariants) violated.
	VioCommitRefs
	// VioCommitUnparked: the commit ran while an AP was not parked at
	// the rendezvous (§5.4).
	VioCommitUnparked
	// VioNegativeRefs: the refcount went negative.
	VioNegativeRefs
	// VioTornMode: a quiescent state where some CPU's loaded control
	// state disagrees with the committed mode (the per-CPU
	// GDTR/IDTR-vs-mode clause of CheckInvariants).
	VioTornMode
	// VioLostWrite: a sensitive store executed in a different mode
	// than its operation entered under — under the journal policy, a
	// direct write the attached VMM never sees.
	VioLostWrite
	// VioDeadlock: a non-terminal state with no enabled action — the
	// liveness half: a deferred switch that can neither commit nor
	// exhaust MaxDeferrals.
	VioDeadlock
)

func (v Violation) String() string {
	switch v {
	case VioNone:
		return "none"
	case VioCommitRefs:
		return "commit-with-refcount-held"
	case VioCommitUnparked:
		return "commit-with-ap-unparked"
	case VioNegativeRefs:
		return "negative-refcount"
	case VioTornMode:
		return "torn-mode"
	case VioLostWrite:
		return "lost-write"
	case VioDeadlock:
		return "deadlock"
	}
	return fmt.Sprintf("violation%d", uint8(v))
}

// MarshalText spells the violation by name in JSON.
func (v Violation) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// Config shapes the reduced machine.
type Config struct {
	// CPUs is K (1..MaxCPUs); CPU 0 is the control processor.
	CPUs int
	// Workers is how many VO operations run concurrently (0..MaxWorkers),
	// pinned round-robin to the AP CPUs (to CPU 0 when K == 1, where
	// they only run while no ISR is in flight).
	Workers int
	// OpsPerWorker is how many enter/write/exit rounds each worker runs.
	OpsPerWorker int
	// Switches is how many mode-switch requests the environment raises,
	// alternating attach/detach from native.
	Switches int
	// MaxDeferrals is the retry budget (the production MaxDeferrals,
	// kept small to bound the state space).
	MaxDeferrals int
	// Journal models the TrackJournal arm/replay machinery.
	Journal bool
	// Bug is the seeded regression to plant (BugNone = shipped protocol).
	Bug Bug
}

// DefaultConfig is the committed CI bound: 2 CPUs, two 2-op workers,
// three switches (attach, detach — arming the journal — and a second
// attach that replays it), 2 deferrals.
func DefaultConfig() Config {
	return Config{CPUs: 2, Workers: 2, OpsPerWorker: 2, Switches: 3,
		MaxDeferrals: 2, Journal: true}
}

func (cfg *Config) validate() error {
	if cfg.CPUs < 1 || cfg.CPUs > MaxCPUs {
		return fmt.Errorf("mc: CPUs must be 1..%d, got %d", MaxCPUs, cfg.CPUs)
	}
	if cfg.Workers < 0 || cfg.Workers > MaxWorkers {
		return fmt.Errorf("mc: Workers must be 0..%d, got %d", MaxWorkers, cfg.Workers)
	}
	if cfg.OpsPerWorker < 0 || cfg.OpsPerWorker > 7 {
		return fmt.Errorf("mc: OpsPerWorker must be 0..7, got %d", cfg.OpsPerWorker)
	}
	if cfg.Switches < 0 || cfg.Switches > 15 {
		return fmt.Errorf("mc: Switches must be 0..15, got %d", cfg.Switches)
	}
	if cfg.MaxDeferrals < 1 || cfg.MaxDeferrals > 15 {
		return fmt.Errorf("mc: MaxDeferrals must be 1..15, got %d", cfg.MaxDeferrals)
	}
	return nil
}

// workerCPU is the static worker → CPU pinning.
func (cfg *Config) workerCPU(w int) int {
	if cfg.CPUs == 1 {
		return 0
	}
	return 1 + w%(cfg.CPUs-1)
}

// initState is the reduced machine's boot state: native mode, no switch
// in flight, all workers idle with their full op budget.
func initState(cfg Config) State {
	var s State
	s.Pending = -1
	s.Requests = uint8(cfg.Switches)
	for w := 0; w < cfg.Workers; w++ {
		s.WOps[w] = uint8(cfg.OpsPerWorker)
	}
	return s
}

// ActionKind is one atomic transition of the reduced machine.
type ActionKind uint8

const (
	// ActRaise: the environment raises the next switch request
	// (RequestSwitch posting the mode-switch vector).
	ActRaise ActionKind = iota
	// ActTimerFire: the retry timer expires and re-enters the ISR.
	ActTimerFire
	// ActGateCheck: the CP reads the commit gate; open → send the
	// rendezvous IPIs, shut → defer (or starve) via the retry path.
	ActGateCheck
	// ActGatherComplete: the CP observes every AP parked and leaves the
	// gather spin (with BugRendezvous, it leaves without looking).
	ActGatherComplete
	// ActGateRecheck: the CP re-reads the gate under the parked
	// rendezvous; shut → abort the attempt (skipped under BugTOCTOU).
	ActGateRecheck
	// ActCommitBegin: state transfer starts; journal replay happens
	// here on an attach.
	ActCommitBegin
	// ActCommitEnd: the new mode is published; journal armed on detach.
	ActCommitEnd
	// ActFinish: the CP confirms every AP resumed, then completes the
	// ISR — including the deferral/starvation accounting after an
	// aborted attempt.
	ActFinish
	// ActAPPark: an AP takes the rendezvous IPI and checks in.
	ActAPPark
	// ActAPResume: a released AP reloads its control state for Target.
	ActAPResume
	// ActEnter: a worker enters the VO (refcount++).
	ActEnter
	// ActWrite: a worker performs its sensitive store.
	ActWrite
	// ActExit: a worker exits the VO (refcount--).
	ActExit
)

func (k ActionKind) String() string {
	switch k {
	case ActRaise:
		return "raise-switch"
	case ActTimerFire:
		return "retry-fire"
	case ActGateCheck:
		return "gate-check"
	case ActGatherComplete:
		return "rendezvous-gather"
	case ActGateRecheck:
		return "gate-recheck"
	case ActCommitBegin:
		return "commit-begin"
	case ActCommitEnd:
		return "commit-end"
	case ActFinish:
		return "rendezvous-release"
	case ActAPPark:
		return "ap-park"
	case ActAPResume:
		return "ap-resume"
	case ActEnter:
		return "vo-enter"
	case ActWrite:
		return "vo-write"
	case ActExit:
		return "vo-exit"
	}
	return fmt.Sprintf("action%d", uint8(k))
}

// Action is one enabled transition: a kind plus the acting AP index
// (ActAPPark/ActAPResume) or worker index (ActEnter/ActWrite/ActExit).
type Action struct {
	Kind ActionKind
	Who  uint8
}

func (a Action) String() string {
	switch a.Kind {
	case ActAPPark, ActAPResume:
		return fmt.Sprintf("cpu%d/%s", a.Who, a.Kind)
	case ActEnter, ActWrite, ActExit:
		return fmt.Sprintf("w%d/%s", a.Who, a.Kind)
	default:
		return a.Kind.String()
	}
}

// allParked reports whether every AP has checked in.
func (s *State) allParked(cfg *Config) bool {
	for i := 1; i < cfg.CPUs; i++ {
		if s.AP[i] != apParked {
			return false
		}
	}
	return true
}

// allResumed reports whether every AP has left the rendezvous.
func (s *State) allResumed(cfg *Config) bool {
	for i := 1; i < cfg.CPUs; i++ {
		if s.AP[i] != apResumed {
			return false
		}
	}
	return true
}

// workerFree reports whether worker w's CPU can execute user code: its
// AP is not parked (a parked CPU spins with interrupts off), or — for a
// worker pinned to the CP on a uniprocessor — no ISR is in flight.
func (s *State) workerFree(cfg *Config, w int) bool {
	j := cfg.workerCPU(w)
	if j == 0 {
		return s.CP == cpIdle
	}
	return s.AP[j] != apParked
}

// enabled appends every action runnable from s to dst (reused across
// calls to keep the checker allocation-light) in a fixed deterministic
// order: environment, CP, APs, workers.
func enabled(dst []Action, s *State, cfg *Config) []Action {
	// Environment.
	if s.Pending == -1 && s.CP == cpIdle && !s.TimerArmed && s.Requests > 0 {
		dst = append(dst, Action{Kind: ActRaise})
	}
	if s.TimerArmed && s.CP == cpIdle {
		dst = append(dst, Action{Kind: ActTimerFire})
	}
	// Control processor.
	switch s.CP {
	case cpGate:
		dst = append(dst, Action{Kind: ActGateCheck})
	case cpGather:
		if s.allParked(cfg) || cfg.Bug == BugRendezvous {
			dst = append(dst, Action{Kind: ActGatherComplete})
		}
	case cpRecheck:
		dst = append(dst, Action{Kind: ActGateRecheck})
	case cpCommitBegin:
		dst = append(dst, Action{Kind: ActCommitBegin})
	case cpCommitEnd:
		dst = append(dst, Action{Kind: ActCommitEnd})
	case cpWaitDone:
		if s.allResumed(cfg) {
			dst = append(dst, Action{Kind: ActFinish})
		}
	}
	// Application processors.
	for i := 1; i < cfg.CPUs; i++ {
		switch {
		case s.IPISent && s.AP[i] == apRunning:
			dst = append(dst, Action{Kind: ActAPPark, Who: uint8(i)})
		case s.Released && s.AP[i] == apParked:
			dst = append(dst, Action{Kind: ActAPResume, Who: uint8(i)})
		}
	}
	// Workers.
	for w := 0; w < cfg.Workers; w++ {
		if !s.workerFree(cfg, w) {
			continue
		}
		switch s.W[w] {
		case wIdle:
			if s.WOps[w] > 0 {
				dst = append(dst, Action{Kind: ActEnter, Who: uint8(w)})
			}
		case wIn:
			dst = append(dst, Action{Kind: ActWrite, Who: uint8(w)})
		case wWrote:
			dst = append(dst, Action{Kind: ActExit, Who: uint8(w)})
		}
	}
	return dst
}

// deferOrStarve is the retry path shared by the shut first gate and the
// post-rendezvous abort — the same accounting deferSwitch performs,
// decided by the production core.DeferVerdict.
func deferOrStarve(s *State, cfg *Config) {
	s.Deferrals++
	if core.DeferVerdict(int32(s.Deferrals), int32(cfg.MaxDeferrals)) {
		s.Pending = -1
		s.Deferrals = 0
		return
	}
	s.TimerArmed = true
}

// apply executes a on s and returns the successor state. It must only
// be called with an action reported by enabled for the same state.
func apply(s State, a Action, cfg *Config) State {
	switch a.Kind {
	case ActRaise:
		s.Pending = int8(modeVirtual)
		if s.Mode == modeVirtual {
			s.Pending = int8(modeNative)
		}
		s.Requests--
		s.Deferrals = 0
		s.CP = cpGate

	case ActTimerFire:
		s.TimerArmed = false
		s.CP = cpGate

	case ActGateCheck:
		s.Target = uint8(s.Pending)
		if !core.CommitGateOpen(int64(s.Refs)) {
			s.CP = cpIdle
			deferOrStarve(&s, cfg)
			break
		}
		if cfg.CPUs == 1 {
			// Uniprocessor: the rendezvous degenerates; the recheck
			// still runs (production calls it on the no-op release).
			s.CP = cpRecheck
			break
		}
		s.IPISent = true
		s.CP = cpGather

	case ActGatherComplete:
		if cfg.Bug == BugTOCTOU {
			// PR-3 revert: commit straight off the stale first read.
			s.CP = cpCommitBegin
			break
		}
		s.CP = cpRecheck

	case ActGateRecheck:
		if core.CommitGateOpen(int64(s.Refs)) {
			s.CP = cpCommitBegin
			break
		}
		// Abort: APs reload the old mode, then the retry path runs.
		s.Target = s.Mode
		s.Released = true
		s.Aborting = true
		s.CP = cpWaitDone

	case ActCommitBegin:
		s.Committing = true
		if s.Target == modeVirtual && cfg.Journal && s.JArmed {
			// Journal replay (or the overflow fallback to a full
			// recompute — same resulting accounting).
			s.JDirty = 0
			s.JArmed = false
		}
		s.CP = cpCommitEnd

	case ActCommitEnd:
		s.Mode = s.Target
		s.CPUMode[0] = s.Target
		if s.Target == modeNative && cfg.Journal {
			s.JArmed = true
		}
		s.Committing = false
		s.Pending = -1
		s.Deferrals = 0
		s.Released = true
		s.CP = cpWaitDone

	case ActFinish:
		for i := 1; i < cfg.CPUs; i++ {
			s.AP[i] = apRunning
		}
		s.IPISent = false
		s.Released = false
		s.CP = cpIdle
		if s.Aborting {
			s.Aborting = false
			deferOrStarve(&s, cfg)
		}

	case ActAPPark:
		s.AP[a.Who] = apParked

	case ActAPResume:
		s.AP[a.Who] = apResumed
		s.CPUMode[a.Who] = s.Target

	case ActEnter:
		s.Refs++
		s.W[a.Who] = wIn
		s.WMode[a.Who] = s.Mode

	case ActWrite:
		if s.Mode != s.WMode[a.Who] {
			// The operation entered under one mode and its store lands
			// under the other: under the journal policy this is a
			// direct write the attached VMM never sees.
			s.LostWrite = true
		}
		if s.Mode == modeNative && s.JArmed && s.JDirty <= jCap {
			s.JDirty++
		}
		s.W[a.Who] = wWrote

	case ActExit:
		s.Refs--
		s.WOps[a.Who]--
		s.W[a.Who] = wIdle
	}
	return s
}

// invariants checks s against the protocol's safety properties — the
// reduced-machine reading of core.(*Mercury).CheckInvariants.
func invariants(s *State, cfg *Config) Violation {
	if s.Refs < 0 {
		return VioNegativeRefs
	}
	if s.Committing {
		if !core.CommitGateOpen(int64(s.Refs)) {
			return VioCommitRefs
		}
		if !s.allParked(cfg) {
			return VioCommitUnparked
		}
	}
	if s.LostWrite {
		return VioLostWrite
	}
	// Quiescent coherence: with no ISR in flight and every AP running,
	// each CPU's loaded control state must match the committed mode.
	if s.CP == cpIdle && !s.Committing {
		quiescent := true
		for i := 1; i < cfg.CPUs; i++ {
			if s.AP[i] != apRunning {
				quiescent = false
				break
			}
		}
		if quiescent {
			for i := 0; i < cfg.CPUs; i++ {
				if s.CPUMode[i] != s.Mode {
					return VioTornMode
				}
			}
		}
	}
	return VioNone
}

// terminal reports whether s is a legitimate end state: every request
// resolved, no timer pending, all workers drained, machine quiescent.
// A stuck state that is not terminal is a liveness violation.
func terminal(s *State, cfg *Config) bool {
	if s.CP != cpIdle || s.Pending != -1 || s.TimerArmed || s.Requests != 0 {
		return false
	}
	for i := 1; i < cfg.CPUs; i++ {
		if s.AP[i] != apRunning {
			return false
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		if s.W[w] != wIdle || s.WOps[w] != 0 {
			return false
		}
	}
	return true
}

// keySize is the encoded-state width: 12 scalar/flag bytes plus the
// four per-CPU and three per-worker arrays.
const keySize = 12 + 2*MaxCPUs + 3*MaxWorkers

// encode packs s into a fixed-size comparable key for the visited set.
func encode(s *State) [keySize]byte {
	var k [keySize]byte
	k[0] = s.Mode
	k[1] = byte(s.Pending + 1)
	k[2] = s.Target
	k[3] = s.Requests
	k[4] = byte(s.Refs + MaxWorkers) // refs ∈ [-MaxWorkers, MaxWorkers]
	k[5] = byte(s.Deferrals)
	var flags byte
	if s.TimerArmed {
		flags |= 1 << 0
	}
	if s.IPISent {
		flags |= 1 << 1
	}
	if s.Released {
		flags |= 1 << 2
	}
	if s.Committing {
		flags |= 1 << 3
	}
	if s.Aborting {
		flags |= 1 << 4
	}
	if s.JArmed {
		flags |= 1 << 5
	}
	if s.LostWrite {
		flags |= 1 << 6
	}
	k[6] = flags
	k[7] = s.CP
	k[8] = s.JDirty
	// k[9..11] reserved (zero) to keep the layout byte-aligned.
	o := 12
	for i := 0; i < MaxCPUs; i++ {
		k[o+i] = s.AP[i]
		k[o+MaxCPUs+i] = s.CPUMode[i]
	}
	o += 2 * MaxCPUs
	for w := 0; w < MaxWorkers; w++ {
		k[o+w] = s.W[w]
		k[o+MaxWorkers+w] = s.WMode[w]
		k[o+2*MaxWorkers+w] = s.WOps[w]
	}
	return k
}
