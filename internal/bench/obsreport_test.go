package bench

import (
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
		var sum uint64
		for _, p := range phases {
			sum += p.TotalCyc
		}
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
}
