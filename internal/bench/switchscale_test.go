package bench

import "testing"

// findPoint pulls one sweep point by configuration.
func findPoint(t *testing.T, pts []SwitchScalePoint, policy string, ncpu, pages int) SwitchScalePoint {
	t.Helper()
	for _, pt := range pts {
		if pt.Policy == policy && pt.NCPU == ncpu && pt.Pages == pages {
			return pt
		}
	}
	t.Fatalf("no sweep point %s/%dcpu/%dpg", policy, ncpu, pages)
	return SwitchScalePoint{}
}

// TestSwitchScaleAcceptance runs the full sweep once and asserts the
// issue's two performance criteria plus determinism of the cycle counts.
func TestSwitchScaleAcceptance(t *testing.T) {
	pts, err := SwitchScale()
	if err != nil {
		t.Fatal(err)
	}

	// Sub-linear attach in CPU count: with the shards running while the
	// APs are parked, 4 CPUs must not pay 4x1-CPU cycles — require at
	// least a 1.5x win at the larger working set.
	one := findPoint(t, pts, "recompute", 1, 4096)
	four := findPoint(t, pts, "recompute", 4, 4096)
	if four.AttachCyc*3 > one.AttachCyc*2 {
		t.Errorf("attach not sub-linear: 1 cpu %d cyc, 4 cpu %d cyc",
			one.AttachCyc, four.AttachCyc)
	}

	// Journal re-attach at ~10%% dirty beats the cold attach by >=5x.
	for _, pages := range ScalePages {
		j := findPoint(t, pts, "journal", 1, pages)
		if j.Replays == 0 {
			t.Errorf("journal %dpg: re-attach did not replay (%d fallbacks)", pages, j.Fallbacks)
		}
		if j.ReattachCyc*5 > j.AttachCyc {
			t.Errorf("journal %dpg: replay re-attach %d cyc vs cold %d: less than 5x win",
				pages, j.ReattachCyc, j.AttachCyc)
		}
	}

	// Determinism: the committed baseline is only diffable if a repeat
	// run reproduces every value exactly.
	again, err := SwitchScale()
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeJSON(pts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeJSON(again)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Diff(first, second); err != nil || len(v) != 0 {
		t.Errorf("sweep not deterministic: %v %v", v, err)
	}
}

// A switch baseline written to disk diffs clean against the sweep it
// came from; any cycle drift, and a missing or extra point, is named by
// its JSON path.
func TestSwitchBaselineRoundTripAndCompare(t *testing.T) {
	pts := []SwitchScalePoint{
		{Policy: "recompute", NCPU: 1, Pages: 1024, AttachCyc: 1000, ReattachCyc: 900, DetachCyc: 100},
		{Policy: "journal", NCPU: 2, Pages: 4096, AttachCyc: 5000, ReattachCyc: 400, DetachCyc: 120, Replays: 1},
	}
	base := SwitchBaseline{Schema: SwitchBaselineSchema, Scale: pts}
	measured := func(pts []SwitchScalePoint) SwitchBaseline {
		return SwitchBaseline{Schema: SwitchBaselineSchema, Scale: pts}
	}
	wantDiff(t, "identical sweep", gateDiff(t, base, measured(pts)))

	// No band: even a one-cycle drift is a difference.
	drift := append([]SwitchScalePoint(nil), pts...)
	drift[0].AttachCyc = 1001
	wantDiff(t, "one-cycle drift", gateDiff(t, base, measured(drift)),
		"scale[0].attach_cyc: baseline 1000, measured 1001")

	wantDiff(t, "missing point", gateDiff(t, base, measured(pts[:1])),
		"scale: baseline 2 elements, measured 1")
	extra := append(append([]SwitchScalePoint(nil), pts...),
		SwitchScalePoint{Policy: "active", NCPU: 8, Pages: 64})
	wantDiff(t, "extra point", gateDiff(t, base, measured(extra)),
		"scale: baseline 2 elements, measured 3")
}
