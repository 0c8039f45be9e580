package mc

import "testing"

// The seeded-regression gates: the clean protocol must explore to
// completion with zero violations, and both planted bugs — the PR-3
// TOCTOU commit-gate revert and the rendezvous no-wait — must be
// rediscovered mechanically with minimal counterexamples.

func bugged(b Bug) Config {
	cfg := DefaultConfig()
	cfg.Bug = b
	return cfg
}

func TestCleanProtocolRaceFree(t *testing.T) {
	res, err := Run(DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != VioNone {
		t.Fatalf("clean protocol violated %s:\n%s", res.Violation,
			FormatTrace(res.Config, res.Trace, res.Violation))
	}
	if !res.Complete {
		t.Fatalf("exploration did not close the state graph (bound %d)", res.BoundUsed)
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small state space: %d states", res.States)
	}
}

func TestCleanProtocolVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uniprocessor", Config{CPUs: 1, Workers: 2, OpsPerWorker: 2,
			Switches: 3, MaxDeferrals: 2, Journal: true}},
		{"no-journal", Config{CPUs: 2, Workers: 2, OpsPerWorker: 2,
			Switches: 3, MaxDeferrals: 2}},
		{"no-workers", Config{CPUs: 3, Workers: 0, Switches: 4,
			MaxDeferrals: 2, Journal: true}},
		{"three-cpu", Config{CPUs: 3, Workers: 2, OpsPerWorker: 1,
			Switches: 2, MaxDeferrals: 2, Journal: true}},
		{"tight-deferrals", Config{CPUs: 2, Workers: 2, OpsPerWorker: 2,
			Switches: 3, MaxDeferrals: 1, Journal: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != VioNone {
				t.Fatalf("violated %s:\n%s", res.Violation,
					FormatTrace(res.Config, res.Trace, res.Violation))
			}
			if !res.Complete {
				t.Fatal("state graph not closed")
			}
		})
	}
}

func TestSeededTOCTOUFound(t *testing.T) {
	res, err := Run(bugged(BugTOCTOU), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != VioCommitRefs {
		t.Fatalf("TOCTOU revert: got %s, want %s", res.Violation, VioCommitRefs)
	}
	// The minimal interleaving: raise, gate-check (open), a worker
	// enters on the AP, the AP parks, the stale gather completes and —
	// with the recheck skipped — commit begins over the held refcount.
	if res.TraceLen != 6 {
		t.Fatalf("counterexample not minimal: %d steps, want 6\n%s",
			res.TraceLen, FormatTrace(res.Config, res.Trace, res.Violation))
	}
	if vio, err := Replay(res.Config, res.Trace); err != nil || vio != VioCommitRefs {
		t.Fatalf("replay: vio=%s err=%v", vio, err)
	}
}

func TestSeededRendezvousFound(t *testing.T) {
	res, err := Run(bugged(BugRendezvous), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != VioCommitUnparked {
		t.Fatalf("rendezvous no-wait: got %s, want %s",
			res.Violation, VioCommitUnparked)
	}
	// Minimal: raise, gate-check, the buggy gather completes with the
	// AP still running, recheck passes (refs are zero), commit begins
	// with an unparked AP.
	if res.TraceLen != 5 {
		t.Fatalf("counterexample not minimal: %d steps, want 5\n%s",
			res.TraceLen, FormatTrace(res.Config, res.Trace, res.Violation))
	}
	if vio, err := Replay(res.Config, res.Trace); err != nil || vio != VioCommitUnparked {
		t.Fatalf("replay: vio=%s err=%v", vio, err)
	}
}

// TestDeterministic: identical configurations must produce identical
// exploration statistics — the property BENCH_mc.json's exact diff
// rests on.
func TestDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Transitions != b.Transitions ||
		a.BoundUsed != b.BoundUsed {
		t.Fatalf("non-deterministic exploration: (%d,%d,%d) vs (%d,%d,%d)",
			a.States, a.Transitions, a.BoundUsed,
			b.States, b.Transitions, b.BoundUsed)
	}
	x, err := Run(bugged(BugTOCTOU), Options{})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(bugged(BugTOCTOU), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Trace) != len(y.Trace) {
		t.Fatalf("non-deterministic counterexample: %d vs %d steps",
			len(x.Trace), len(y.Trace))
	}
	for i := range x.Trace {
		if x.Trace[i] != y.Trace[i] {
			t.Fatalf("traces diverge at step %d: %s vs %s",
				i, x.Trace[i], y.Trace[i])
		}
	}
}

// TestBoundedVerdict: a depth cap smaller than the bug's minimal trace
// must report no violation but also not claim completeness.
func TestBoundedVerdict(t *testing.T) {
	res, err := Run(bugged(BugTOCTOU), Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != VioNone {
		t.Fatalf("found %s below the minimal trace length", res.Violation)
	}
	if res.Complete {
		t.Fatal("claimed completeness at depth 4")
	}
}

// TestInvariantsSpotChecks pins the invariant checker against
// hand-built states, independent of the exploration.
func TestInvariantsSpotChecks(t *testing.T) {
	cfg := DefaultConfig()
	s := initState(cfg)
	if v := invariants(&s, &cfg); v != VioNone {
		t.Fatalf("boot state: %s", v)
	}
	s.Refs = -1
	if v := invariants(&s, &cfg); v != VioNegativeRefs {
		t.Fatalf("refs=-1: got %s", v)
	}
	s = initState(cfg)
	s.Committing = true
	s.Refs = 1
	s.AP[1] = apParked
	if v := invariants(&s, &cfg); v != VioCommitRefs {
		t.Fatalf("commit with refs: got %s", v)
	}
	s.Refs = 0
	s.AP[1] = apRunning
	if v := invariants(&s, &cfg); v != VioCommitUnparked {
		t.Fatalf("commit with unparked AP: got %s", v)
	}
	s = initState(cfg)
	s.Mode = modeVirtual
	if v := invariants(&s, &cfg); v != VioTornMode {
		t.Fatalf("quiescent mode mismatch: got %s", v)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{CPUs: 0, MaxDeferrals: 1},
		{CPUs: MaxCPUs + 1, MaxDeferrals: 1},
		{CPUs: 2, Workers: MaxWorkers + 1, MaxDeferrals: 1},
		{CPUs: 2, OpsPerWorker: 8, MaxDeferrals: 1},
		{CPUs: 2, Switches: 16, MaxDeferrals: 1},
		{CPUs: 2, MaxDeferrals: 0},
	} {
		if _, err := Run(bad, Options{}); err == nil {
			t.Fatalf("accepted invalid config %+v", bad)
		}
	}
	if _, err := ParseBug("toctou"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBug("nonesuch"); err == nil {
		t.Fatal("accepted unknown bug name")
	}
}
