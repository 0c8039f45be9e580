package chaos

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fork"
	"repro/internal/hw"
)

// Every snapshot-cache fault class, injected alone, must be caught by
// the store's own defenses: the episode detects and heals, and the
// clone-transaction fault additionally rolls back.
func TestChaosForkFaultEpisodes(t *testing.T) {
	for _, f := range ForkFaults() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			mc := newSystem(t, 1, core.TrackRecompute)
			fe, err := NewForkEnv()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(mc, Config{
				Seed: 5, Episodes: 1, Faults: []*Fault{f}, Fork: fe,
			})
			if err != nil {
				t.Fatal(err)
			}
			ep := rep.Episodes[0]
			if !ep.Injected || !ep.Detected || !ep.Healed {
				t.Fatalf("episode verdict: injected=%v detected=%v healed=%v (%s)",
					ep.Injected, ep.Detected, ep.Healed, ep.Detail)
			}
			if f.Name == "fork-pin-fail" && !ep.RolledBack {
				t.Fatalf("pin failure did not roll the clone back: %s", ep.Detail)
			}
			if rep.Missed != 0 {
				t.Fatalf("%d missed", rep.Missed)
			}
			// The episode left the cache node pristine: balanced refs,
			// verified content, no CoW mappings, no leaked clones.
			if err := fork.AuditRefs(fe.CB.Store, fe.CB.Img); err != nil {
				t.Fatal(err)
			}
			if err := fe.CB.Store.Verify(); err != nil {
				t.Fatal(err)
			}
			if n := fe.V.M.Mem.SharedFrames(); n != 0 {
				t.Fatalf("%d CoW mappings left", n)
			}
		})
	}
}

// The fork fault classes ride along only when a fork environment is
// wired in — the default catalog is unchanged.
func TestChaosForkFaultsGatedOnEnv(t *testing.T) {
	mc := newSystem(t, 1, core.TrackRecompute)
	for _, f := range Catalog(mc) {
		if f.Detector == DetectStore {
			t.Fatalf("catalog includes fork fault %q without a fork env", f.Name)
		}
	}
}

// A mixed fixed-seed campaign with both a standby and a fork node: the
// store faults rotate with everything else, nothing is missed, and the
// episode sequence is reproducible.
func TestChaosForkCampaignFixedSeed(t *testing.T) {
	run := func() *Report {
		mc := newSystem(t, 1, core.TrackRecompute)
		fe, err := NewForkEnv()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(11)
		cfg.Episodes = 12
		cfg.Fork = fe
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
	storeEpisodes := 0
	for _, ep := range rep.Episodes {
		if ep.Detector == DetectStore {
			storeEpisodes++
			if !ep.Healed {
				t.Fatalf("store episode %d (%s) not healed: %s", ep.Index, ep.Fault, ep.Detail)
			}
		}
	}
	if storeEpisodes == 0 {
		t.Fatal("seed 11 drew no store episodes — pick another seed")
	}
	rep2 := run()
	if len(rep2.Episodes) != len(rep.Episodes) {
		t.Fatalf("reruns diverge: %d vs %d episodes", len(rep2.Episodes), len(rep.Episodes))
	}
	for i := range rep.Episodes {
		a, b := rep.Episodes[i], rep2.Episodes[i]
		if a.Fault != b.Fault || a.Detected != b.Detected || a.Healed != b.Healed {
			t.Fatalf("episode %d diverges across reruns: %+v vs %+v", i, a, b)
		}
	}
}

// TestChaosForkAbortPropertyReleasesRefs is the refcount-leak property
// test: across seeded random interleavings of injected hypercall
// failures, dirtying, delta checkpoints, destroys, and aborts, every
// path must leave the store's refcounts exactly balanced against the
// live owners.
func TestChaosForkAbortPropertyReleasesRefs(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		fe, err := NewForkEnv()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var clones []*fork.CloneState
		var overlays []*fork.Overlay
		audit := func(step string) {
			holders := []fork.RefHolder{fe.CB.Img}
			for _, cs := range clones {
				holders = append(holders, cs)
			}
			for _, o := range overlays {
				holders = append(holders, o)
			}
			if err := fork.AuditRefs(fe.CB.Store, holders...); err != nil {
				t.Fatalf("seed %d, after %s: %v", seed, step, err)
			}
		}
		for op := 0; op < 24; op++ {
			switch rng.Intn(4) {
			case 0: // clone, possibly under an injected failure
				switch rng.Intn(3) {
				case 1:
					fe.V.InjectPinFailures(1)
				case 2:
					fe.V.InjectUnpauseFailures(1)
				}
				cs, err := fork.Clone(fe.C, fe.V, fe.Dom0, fe.CB, "prop")
				fe.V.InjectPinFailures(0)
				fe.V.InjectUnpauseFailures(0)
				if err == nil {
					clones = append(clones, cs)
				}
				audit("clone")
			case 1: // dirty a live clone (the template's data pages
				// only — pinned table frames are read-only to the guest)
				if len(clones) > 0 {
					cs := clones[rng.Intn(len(clones))]
					off := hw.PFN(rng.Intn(forkTemplatePages))
					fe.V.M.Mem.WriteWord((cs.Lo + off).Addr(), rng.Uint32())
					audit("dirty")
				}
			case 2: // delta-checkpoint a live clone
				if len(clones) > 0 {
					cs := clones[rng.Intn(len(clones))]
					o, err := fork.CheckpointDelta(fe.C, fe.V, fe.Dom0, cs)
					if err != nil {
						t.Fatalf("seed %d: delta: %v", seed, err)
					}
					overlays = append(overlays, o)
					audit("delta")
				}
			case 3: // destroy a live clone
				if len(clones) > 0 {
					i := rng.Intn(len(clones))
					if err := fork.DestroyClone(fe.C, fe.V, fe.Dom0, clones[i]); err != nil {
						t.Fatalf("seed %d: destroy: %v", seed, err)
					}
					clones = append(clones[:i], clones[i+1:]...)
					audit("destroy")
				}
			}
		}
		// Tear everything down: the store must drain to exactly zero.
		for _, cs := range clones {
			if err := fork.DestroyClone(fe.C, fe.V, fe.Dom0, cs); err != nil {
				t.Fatalf("seed %d: final destroy: %v", seed, err)
			}
		}
		for _, o := range overlays {
			if err := o.Release(); err != nil {
				t.Fatalf("seed %d: overlay release: %v", seed, err)
			}
		}
		if err := fe.CB.Img.Release(); err != nil {
			t.Fatalf("seed %d: base release: %v", seed, err)
		}
		if n := fe.CB.Store.Refs(); n != 0 {
			t.Fatalf("seed %d: %d refs left after full teardown", seed, n)
		}
		if n := fe.CB.Store.Frames(); n != 0 {
			t.Fatalf("seed %d: %d frames left after full teardown", seed, n)
		}
	}
}
