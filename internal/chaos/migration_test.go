package chaos

import (
	"testing"

	"repro/internal/core"
)

// Every migration fault class, injected alone, must be caught by the
// migration transaction: the episode detects, rolls back, and heals via
// the retry, leaving both nodes clean.
func TestMigrationFaultEpisodes(t *testing.T) {
	for _, f := range MigrationFaults() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			mc := newSystem(t, 1, core.TrackRecompute)
			sb := standbyNode(t)
			rep, err := Run(mc, Config{
				Seed: 5, Episodes: 1, Faults: []*Fault{f}, Standby: sb,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Episodes) != 1 {
				t.Fatalf("ran %d episodes", len(rep.Episodes))
			}
			ep := rep.Episodes[0]
			if !ep.Injected || !ep.Detected || !ep.RolledBack || !ep.Healed {
				t.Fatalf("episode verdict: injected=%v detected=%v rolledback=%v healed=%v (%s)",
					ep.Injected, ep.Detected, ep.RolledBack, ep.Healed, ep.Detail)
			}
			if rep.Missed != 0 {
				t.Fatalf("%d missed", rep.Missed)
			}
			// The episode's victim was destroyed on the standby after the
			// healing retry: only dom0 remains there.
			if n := len(sb.V.Domains); n != 1 {
				t.Fatalf("standby holds %d domains after episode, want 1", n)
			}
			if err := sb.V.FT.CheckInvariants(); err != nil {
				t.Fatalf("standby frame table: %v", err)
			}
			if mc.Mode() != core.ModeNative {
				t.Fatalf("episode left source in mode %v", mc.Mode())
			}
			if mc.M.Mem.DirtyLogEnabled() {
				t.Fatal("dirty log left armed")
			}
		})
	}
}

// The migration fault classes ride along only when a standby node is
// wired in — the default catalog (and so every existing fixed-seed
// campaign) is unchanged.
func TestMigrationFaultsGatedOnStandby(t *testing.T) {
	mc := newSystem(t, 1, core.TrackRecompute)
	for _, f := range Catalog(mc) {
		if f.Detector == DetectTxn {
			t.Fatalf("catalog includes migration fault %q without a standby", f.Name)
		}
	}
}

// A mixed fixed-seed campaign with a standby: migration faults are in
// the rotation alongside the default catalog, nothing is missed, and
// the sequence is reproducible.
func TestMigrationCampaignFixedSeed(t *testing.T) {
	run := func() *Report {
		mc := newSystem(t, 1, core.TrackRecompute)
		sb := standbyNode(t)
		cfg := DefaultConfig(7)
		cfg.Episodes = 12
		cfg.Standby = sb
		rep, err := Run(mc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Missed != 0 {
		t.Fatalf("campaign missed %d faults: %s", rep.Missed, rep.Summary())
	}
	txnEpisodes := 0
	for _, ep := range rep.Episodes {
		if ep.Detector == DetectTxn {
			txnEpisodes++
			if !ep.RolledBack || !ep.Healed {
				t.Fatalf("migration episode %d (%s) not rolled back and healed: %s",
					ep.Index, ep.Fault, ep.Detail)
			}
		}
	}
	if txnEpisodes == 0 {
		t.Fatal("seed 7 drew no migration episodes — pick another seed")
	}

	rep2 := run()
	if len(rep2.Episodes) != len(rep.Episodes) {
		t.Fatalf("reruns diverge: %d vs %d episodes", len(rep2.Episodes), len(rep.Episodes))
	}
	for i := range rep.Episodes {
		a, b := rep.Episodes[i], rep2.Episodes[i]
		if a.Fault != b.Fault || a.Detected != b.Detected ||
			a.Healed != b.Healed || a.MTTRCycles != b.MTTRCycles {
			t.Fatalf("episode %d diverges across reruns: %+v vs %+v", i, a, b)
		}
	}
}
