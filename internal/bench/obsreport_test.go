package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
)

// TestSwitchBenchPhaseBreakdown is the harness-level acceptance check:
// running the mode-switch benchmark with a collector attached yields a
// per-phase cycle breakdown that sums to the reported switch time
// within 1%, for both directions.
func TestSwitchBenchPhaseBreakdown(t *testing.T) {
	col := obs.New(1)
	const samples = 3
	r, err := ModeSwitchBench(samples, core.TrackRecompute, Options{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	spans := col.Tracer.Spans()
	for _, root := range []string{"switch/attach", "switch/detach"} {
		phases, total, n := PhaseBreakdown(spans, root)
		if n != samples {
			t.Fatalf("%s: %d roots, want %d", root, n, samples)
		}
		if len(phases) == 0 || total == 0 {
			t.Fatalf("%s: empty breakdown", root)
		}
		sum := PhaseSum(phases)
		diff := float64(total) - float64(sum)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01*float64(total) {
			t.Fatalf("%s: phases %d vs root %d (%.2f%% apart)",
				root, sum, total, diff/float64(total)*100)
		}
	}
	// The root totals agree with the benchmark's own cycle accounting:
	// attach averages convert to the same microseconds the result reports.
	_, total, n := PhaseBreakdown(spans, "switch/attach")
	us := float64(total) / float64(n) / float64(hw.DefaultHz) * 1e6
	if diff := us - r.ToVirtualMicros; diff > 0.01*r.ToVirtualMicros || diff < -0.01*r.ToVirtualMicros {
		t.Fatalf("span avg %.2f us vs benchmark %.2f us", us, r.ToVirtualMicros)
	}

	// The rendered report carries both directions and the coverage line.
	var sb strings.Builder
	WritePhaseBreakdown(&sb, col, hw.DefaultHz)
	out := sb.String()
	for _, want := range []string{"switch/attach", "switch/detach",
		"phase/frame-recompute", "phases cover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCollectorSetPerConfiguration: each configuration gets its own
// collector, reused across calls, and the dumps carry distinct data.
func TestCollectorSetPerConfiguration(t *testing.T) {
	cs := NewCollectorSet(1)
	a := cs.For(MN)
	if cs.For(MN) != a {
		t.Fatal("collector not reused")
	}
	b := cs.For(NL)
	if a == b {
		t.Fatal("configurations share a collector")
	}
	keys := cs.Keys()
	if len(keys) != 2 || keys[0] != MN || keys[1] != NL {
		t.Fatalf("keys = %v", keys)
	}
	a.Registry.Counter("core", "attaches_total").Inc()
	// Every collector carries the two eagerly-registered telemetry
	// drop counters; only M-N's dump has the attach counter on top.
	dumps := cs.Dumps()
	if len(dumps[MN]) != len(dumps[NL])+1 {
		t.Fatalf("dumps = %v", dumps)
	}
	found := false
	for _, m := range dumps[MN] {
		if m.Subsystem == "core" && m.Name == "attaches_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("M-N dump missing attach counter: %v", dumps[MN])
	}
	var sb strings.Builder
	cs.WriteProm(&sb)
	if !strings.Contains(sb.String(), "# configuration: M-N") {
		t.Fatalf("prom output: %s", sb.String())
	}
}

// TestLmbenchTableWithCollectors: the table builder threads a collector
// into every configuration it constructs and the instrumented systems
// leave metrics behind.
func TestLmbenchTableWithCollectors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all six configurations")
	}
	cs := NewCollectorSet(1)
	if _, err := LmbenchTable(1, Options{CollectorFor: cs.For}); err != nil {
		t.Fatal(err)
	}
	if len(cs.Keys()) == 0 {
		t.Fatal("no configurations collected")
	}
	// Every Mercury-based configuration recorded vo activity.
	for _, key := range cs.Keys() {
		dump := cs.For(key).Registry.Dump()
		if len(dump) == 0 {
			t.Fatalf("%s: empty registry", key)
		}
	}
}
