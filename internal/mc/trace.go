package mc

import (
	"fmt"
	"strings"
)

// A counterexample is only convincing if it can be replayed: Replay
// re-executes the action sequence against the same reduced machine,
// verifying at each step that the action was actually enabled, and
// returns the violation the final state exhibits. FormatTrace renders
// the same sequence with the machine state after each step, which is
// what `mercuryctl mc -trace` prints.

// Replay re-runs trace from cfg's boot state. It errors if any step is
// not enabled in its predecessor state (a corrupted or mismatched
// trace), and otherwise returns the first violation encountered —
// VioNone means the trace does not reproduce a failure.
func Replay(cfg Config, trace []Action) (Violation, error) {
	if err := cfg.validate(); err != nil {
		return VioNone, err
	}
	s := initState(cfg)
	var buf []Action
	for i, a := range trace {
		buf = enabled(buf[:0], &s, &cfg)
		ok := false
		for _, e := range buf {
			if e == a {
				ok = true
				break
			}
		}
		if !ok {
			return VioNone, fmt.Errorf(
				"mc: replay step %d: %s not enabled (CP=%d refs=%d mode=%d)",
				i, a, s.CP, s.Refs, s.Mode)
		}
		s = apply(s, a, &cfg)
		if v := invariants(&s, &cfg); v != VioNone {
			if i != len(trace)-1 {
				return v, fmt.Errorf(
					"mc: replay violated %s at step %d of %d (trace not minimal?)",
					v, i+1, len(trace))
			}
			return v, nil
		}
	}
	// No safety breach along the way: the trace may end in a deadlock.
	buf = enabled(buf[:0], &s, &cfg)
	if len(buf) == 0 && !terminal(&s, &cfg) {
		return VioDeadlock, nil
	}
	return VioNone, nil
}

// FormatTrace renders a counterexample for humans: one line per step
// with the machine state after it, so the interleaving that breaks the
// invariant can be read top to bottom.
func FormatTrace(cfg Config, trace []Action, vio Violation) string {
	var b strings.Builder
	s := initState(cfg)
	fmt.Fprintf(&b, "    boot: %s\n", stateLine(&s, &cfg))
	for i, a := range trace {
		s = apply(s, a, &cfg)
		fmt.Fprintf(&b, "%4d  %-22s %s\n", i+1, a.String(), stateLine(&s, &cfg))
	}
	fmt.Fprintf(&b, "violation: %s\n", vio)
	return b.String()
}

// stateLine is the one-line state summary used by FormatTrace.
func stateLine(s *State, cfg *Config) string {
	mode := "native"
	if s.Mode == modeVirtual {
		mode = "virtual"
	}
	var ap strings.Builder
	for i := 1; i < cfg.CPUs; i++ {
		switch s.AP[i] {
		case apParked:
			ap.WriteByte('P')
		case apResumed:
			ap.WriteByte('R')
		default:
			ap.WriteByte('.')
		}
	}
	var w strings.Builder
	for i := 0; i < cfg.Workers; i++ {
		switch s.W[i] {
		case wIn:
			w.WriteByte('i')
		case wWrote:
			w.WriteByte('w')
		default:
			w.WriteByte('.')
		}
	}
	flags := ""
	if s.Committing {
		flags += " COMMITTING"
	}
	if s.TimerArmed {
		flags += " timer"
	}
	if s.JArmed {
		flags += " journal"
	}
	return fmt.Sprintf("mode=%-7s refs=%d cp=%d ap=[%s] w=[%s]%s",
		mode, s.Refs, s.CP, ap.String(), w.String(), flags)
}
