package bench

import (
	"reflect"
	"testing"
)

func TestMigrateSweepVerifiedAndDeterministic(t *testing.T) {
	pts, err := MigrateSweep()
	if err != nil {
		t.Fatal(err)
	}
	want := len(MigratePages) * len(MigrateDirty) * len(MigrateSLOsUS)
	if len(pts) != want {
		t.Fatalf("sweep has %d points, want %d", len(pts), want)
	}
	for _, pt := range pts {
		if !pt.Verified {
			t.Fatalf("point %dpg/%ddirty/slo=%.0fus migrated unverified",
				pt.Pages, pt.DirtyPerRound, pt.SLOUs)
		}
		if pt.PagesSent < pt.Pages {
			t.Fatalf("point %dpg sent only %d pages", pt.Pages, pt.PagesSent)
		}
		if pt.Rounds < 1 {
			t.Fatalf("point %dpg/%ddirty reports %d pre-copy rounds", pt.Pages, pt.DirtyPerRound, pt.Rounds)
		}
		if pt.StopReason == "" {
			t.Fatal("missing stop reason")
		}
		if pt.DowntimeCyc == 0 || pt.TotalCyc < pt.DowntimeCyc {
			t.Fatalf("implausible timing: downtime=%d total=%d", pt.DowntimeCyc, pt.TotalCyc)
		}
	}

	// The simulation is deterministic — that is what makes the committed
	// baseline meaningful.
	pts2, err := MigrateSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, pts2) {
		t.Fatal("two sweeps diverge")
	}
}

// A migration baseline written to disk diffs clean against its own
// sweep; cycle drift, a changed stop reason or verdict, and missing or
// extra points are each named by their JSON path.
func TestMigrateBaselineRoundTripAndCompare(t *testing.T) {
	pts := []MigratePoint{
		{Pages: 512, DirtyPerRound: 8, SLOUs: 0, Rounds: 2, PagesSent: 520,
			DowntimeCyc: 1000, TotalCyc: 5000, StopReason: "threshold", Verified: true},
		{Pages: 512, DirtyPerRound: 64, SLOUs: 300, Rounds: 3, PagesSent: 700,
			DowntimeCyc: 2000, TotalCyc: 9000, StopReason: "slo", Verified: true},
	}
	base := MigrateBaseline{Schema: MigrateBaselineSchema, Sweep: pts}
	measured := func(pts []MigratePoint) MigrateBaseline {
		return MigrateBaseline{Schema: MigrateBaselineSchema, Sweep: pts}
	}
	wantDiff(t, "identical sweep", gateDiff(t, base, measured(pts)))

	drift := append([]MigratePoint(nil), pts...)
	drift[0].DowntimeCyc = 1100
	wantDiff(t, "cycle drift", gateDiff(t, base, measured(drift)),
		"sweep[0].downtime_cyc: baseline 1000, measured 1100")

	algo := append([]MigratePoint(nil), pts...)
	algo[1].StopReason = "diverging"
	algo[1].Verified = false
	wantDiff(t, "algorithmic drift", gateDiff(t, base, measured(algo)),
		`sweep[1].stop_reason: baseline "slo", measured "diverging"`,
		"sweep[1].verified: baseline true, measured false")

	wantDiff(t, "missing point", gateDiff(t, base, measured(pts[:1])),
		"sweep: baseline 2 elements, measured 1")
	extra := append(append([]MigratePoint(nil), pts...),
		MigratePoint{Pages: 9999, DirtyPerRound: 1})
	wantDiff(t, "extra point", gateDiff(t, base, measured(extra)),
		"sweep: baseline 2 elements, measured 3")
}
