package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"repro/internal/mc"
)

// mcJSON is the -json output shape: the exploration result plus the
// counterexample as strings.
type mcJSON struct {
	*mc.Result
	Trace []string `json:"trace,omitempty"`
}

// mcCmd runs the mode-switch protocol model checker from the command
// line. Exit status: 0 when the verdict matches -expect (default
// "none": a clean, complete exploration), 1 otherwise — so CI can
// assert both the race-free pass and the seeded-bug rediscoveries.
func mcCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mc", flag.ContinueOnError)
	cpus := fs.Int("cpus", 2, "CPUs in the reduced machine (CPU 0 is the CP)")
	workers := fs.Int("workers", 2, "concurrent VO operations")
	ops := fs.Int("ops", 2, "enter/write/exit rounds per worker")
	switches := fs.Int("switches", 3, "mode-switch requests to raise")
	deferrals := fs.Int("deferrals", 2, "retry budget (MaxDeferrals)")
	depth := fs.Int("depth", 0, "exploration depth bound (0 = default)")
	bugName := fs.String("seed-bug", "none", "seeded regression to plant (none, toctou, rendezvous)")
	noJournal := fs.Bool("nojournal", false, "disable the dirty-journal model")
	trace := fs.Bool("trace", false, "print the counterexample step by step with the machine state after each step")
	expect := fs.String("expect", "none", "expected verdict for the exit status (none or a violation name)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	bug, err := mc.ParseBug(*bugName)
	if err != nil {
		return err
	}
	cfg := mc.Config{
		CPUs:         *cpus,
		Workers:      *workers,
		OpsPerWorker: *ops,
		Switches:     *switches,
		MaxDeferrals: *deferrals,
		Journal:      !*noJournal,
		Bug:          bug,
	}
	res, err := mc.Run(cfg, mc.Options{MaxDepth: *depth})
	if err != nil {
		return err
	}

	// Prove the counterexample replays before showing it.
	if res.Violation != mc.VioNone && len(res.Trace) > 0 {
		replayed, err := mc.Replay(cfg, res.Trace)
		if err != nil {
			return fmt.Errorf("mc: counterexample does not replay: %w", err)
		}
		if replayed != res.Violation {
			return fmt.Errorf("mc: replay produced %s, checker reported %s", replayed, res.Violation)
		}
	}

	if *jsonOut {
		out := mcJSON{Result: res}
		for _, a := range res.Trace {
			out.Trace = append(out.Trace, a.String())
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "mc: cpus=%d workers=%d ops=%d switches=%d deferrals=%d journal=%v bug=%s\n",
			cfg.CPUs, cfg.Workers, cfg.OpsPerWorker, cfg.Switches,
			cfg.MaxDeferrals, cfg.Journal, cfg.Bug)
		if res.Violation == mc.VioNone {
			scope := fmt.Sprintf("bounded at depth %d", res.BoundUsed)
			if res.Complete {
				scope = "state graph closed"
			}
			fmt.Fprintf(w, "verdict: race-free (%s: %d states, %d transitions, %.2f ms)\n",
				scope, res.States, res.Transitions, res.ElapsedMS)
		} else {
			fmt.Fprintf(w, "verdict: VIOLATION %s (%d states explored, minimal counterexample %d steps, %.2f ms)\n",
				res.Violation, res.States, res.TraceLen, res.ElapsedMS)
			fmt.Fprintln(w, "replay: counterexample verified against the reduced machine")
			if *trace {
				fmt.Fprintln(w)
				fmt.Fprint(w, mc.FormatTrace(cfg, res.Trace, res.Violation))
			}
		}
	}

	if res.Violation.String() != *expect {
		return fmt.Errorf("mc: verdict %s does not match expected %s", res.Violation, *expect)
	}
	return nil
}
