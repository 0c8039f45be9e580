package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/xen"
)

// newSystem builds a Mercury system with a small deferral budget (so
// starvation faults resolve in a handful of simulated ticks).
func newSystem(t *testing.T, ncpu int, policy core.TrackingPolicy) *core.Mercury {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: ncpu})
	mc, err := core.New(core.Config{Machine: m, Policy: policy, MaxDeferrals: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// standbyNode builds a healthy evacuation target.
func standbyNode(t *testing.T) *xen.Host {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 128 << 20, NumCPUs: 1}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestChaosCatalogStructure: the registry spans all three layers with
// at least eight distinct classes, and the attach-validation faults are
// gated on the recompute policy.
func TestChaosCatalogStructure(t *testing.T) {
	mc := newSystem(t, 1, core.TrackRecompute)
	faults := Catalog(mc)
	if len(faults) < 8 {
		t.Fatalf("catalog has %d fault classes, want >= 8", len(faults))
	}
	layers := map[Layer]int{}
	names := map[string]bool{}
	for _, f := range faults {
		layers[f.Layer]++
		if names[f.Name] {
			t.Fatalf("duplicate fault %q", f.Name)
		}
		names[f.Name] = true
		if f.Detector != DetectInvariant && f.Detector != DetectSensor && f.Detector != DetectSwitch {
			t.Fatalf("fault %q has unknown detector %q", f.Name, f.Detector)
		}
	}
	for _, l := range []Layer{LayerGuest, LayerVMM, LayerHW} {
		if layers[l] == 0 {
			t.Fatalf("no faults in layer %q", l)
		}
	}

	active := newSystem(t, 1, core.TrackActive)
	for _, f := range Catalog(active) {
		if f.Name == "pagetable-corruption" || f.Name == "hypercall-transient" {
			t.Fatalf("attach-validation fault %q present under active tracking", f.Name)
		}
	}
}

// TestChaosEveryFaultDetectedAndHealed: each fault class, injected
// alone, is caught by its declared detector and the system verifies
// clean afterwards.
func TestChaosEveryFaultDetectedAndHealed(t *testing.T) {
	proto := newSystem(t, 1, core.TrackRecompute)
	for _, f := range Catalog(proto) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			mc := newSystem(t, 1, core.TrackRecompute)
			rep, err := Run(mc, Config{Seed: 7, Episodes: 1, Faults: []*Fault{f}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Episodes) != 1 {
				t.Fatalf("episodes: %+v", rep.Episodes)
			}
			ep := rep.Episodes[0]
			if !ep.Injected || !ep.Detected || !ep.Healed {
				t.Fatalf("episode: %+v", ep)
			}
			if f.Detector == DetectSwitch && !ep.RolledBack && !ep.Starved {
				t.Fatalf("switch fault neither rolled back nor starved: %+v", ep)
			}
			if rep.Missed != 0 {
				t.Fatalf("missed: %+v", rep)
			}
			if mc.Mode() != core.ModeNative {
				t.Fatalf("mode = %v after campaign", mc.Mode())
			}
		})
	}
}

// TestChaosJournalCorruptionCaught: under the journal policy the
// catalog gains a fault that flips a bit in a recorded dirty-ring entry;
// the re-attach replay must refuse to apply the divergent delta, roll
// the switch back, and commit cleanly once the entry is restored.
func TestChaosJournalCorruptionCaught(t *testing.T) {
	mc := newSystem(t, 1, core.TrackJournal)
	var jf *Fault
	for _, f := range Catalog(mc) {
		if f.Name == "journal-corruption" {
			jf = f
		}
		if f.Name == "pagetable-corruption" || f.Name == "hypercall-transient" {
			t.Fatalf("recompute-only fault %q present under journal policy", f.Name)
		}
	}
	if jf == nil {
		t.Fatal("journal policy catalog lacks journal-corruption")
	}
	if jf.Detector != DetectSwitch {
		t.Fatalf("journal-corruption detector %q, want switch validation", jf.Detector)
	}

	rep, err := Run(mc, Config{Seed: 13, Episodes: 3, Faults: []*Fault{jf}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != 3 || rep.Detected != 3 || rep.Healed != 3 || rep.Missed != 0 {
		t.Fatalf("report: %s", rep.Summary())
	}
	for _, ep := range rep.Episodes {
		if !ep.RolledBack {
			t.Fatalf("corrupted replay committed without rollback: %+v", ep)
		}
	}
	if err := mc.CheckInvariants(mc.M.BootCPU()); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

// TestChaosJournalCampaign: the full mixed-fault campaign holds under
// the journal policy, on both UP and the SMP rendezvous path.
func TestChaosJournalCampaign(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			mc := newSystem(t, ncpu, core.TrackJournal)
			cfg := DefaultConfig(17)
			cfg.Episodes = 12
			rep, err := Run(mc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Injected != cfg.Episodes || rep.Missed != 0 {
				t.Fatalf("report: %s", rep.Summary())
			}
			if mc.Mode() != core.ModeNative {
				t.Fatalf("mode = %v after campaign", mc.Mode())
			}
			if err := mc.CheckInvariants(mc.M.BootCPU()); err != nil {
				t.Fatalf("final invariants: %v", err)
			}
		})
	}
}

// TestChaosCampaignReproducible: the acceptance property — two runs
// with the same seed produce identical episode sequences and reports,
// while covering at least eight distinct fault classes across the
// guest/VMM/hardware layers with invariants holding after every
// episode (Run fails otherwise).
func TestChaosCampaignReproducible(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Episodes = 40

	run := func() *Report {
		mc := newSystem(t, 1, core.TrackRecompute)
		rep, err := Run(mc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run()
	r2 := run()

	if !reflect.DeepEqual(r1.Episodes, r2.Episodes) {
		for i := range r1.Episodes {
			if !reflect.DeepEqual(r1.Episodes[i], r2.Episodes[i]) {
				t.Fatalf("episode %d diverged:\n  %+v\n  %+v", i, r1.Episodes[i], r2.Episodes[i])
			}
		}
		t.Fatalf("episode sequences diverged")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports diverged:\n  %+v\n  %+v", r1, r2)
	}

	if r1.Injected != cfg.Episodes || r1.Missed != 0 {
		t.Fatalf("report: %s", r1.Summary())
	}
	if r1.Detected != r1.Injected {
		t.Fatalf("detector gap: %s", r1.Summary())
	}
	if got := r1.FaultClasses(); got < 8 {
		t.Fatalf("campaign exercised %d fault classes, want >= 8", got)
	}
	layers := map[Layer]bool{}
	for _, ep := range r1.Episodes {
		layers[ep.Layer] = true
	}
	if len(layers) != 3 {
		t.Fatalf("campaign covered layers %v", layers)
	}
}

// TestChaosCampaignSMPRendezvous: a campaign on a 2-CPU machine drives
// every switch through the §5.4 rendezvous path.
func TestChaosCampaignSMPRendezvous(t *testing.T) {
	mc := newSystem(t, 2, core.TrackRecompute)
	cfg := DefaultConfig(5)
	cfg.Episodes = 10
	rep, err := Run(mc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != cfg.Episodes || rep.Missed != 0 {
		t.Fatalf("report: %s", rep.Summary())
	}
	if mc.Stats.Attaches.Load() == 0 {
		t.Fatal("campaign never attached — rendezvous path unexercised")
	}
	c := mc.M.BootCPU()
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

// TestChaosCampaignEscalatesMidCampaign: a fault whose repair fails
// escalates into evacuation to the standby node, and the campaign
// continues clean.
func TestChaosCampaignEscalatesMidCampaign(t *testing.T) {
	mc := newSystem(t, 1, core.TrackRecompute)
	unrepairable := &Fault{
		Name: "runqueue-unrepairable", Layer: LayerGuest, Detector: DetectSensor,
		Inject: func(ctx *Ctx) (*Active, error) {
			ctx.MC.K.InjectRunqueueCorruption(ctx.C)
			s := core.RunqueueSensor()
			return &Active{
				Undo:   func() { ctx.MC.K.RepairRunqueue(ctx.C) },
				Sensor: &s,
				Repair: func(*hw.CPU, *core.Mercury) error {
					return fmt.Errorf("repair tool broken")
				},
			}, nil
		},
	}
	cfg := Config{Seed: 11, Episodes: 2, Faults: []*Fault{unrepairable},
		Standby: standbyNode(t)}
	rep, err := Run(mc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escalated != 2 || rep.Detected != 2 {
		t.Fatalf("report: %s", rep.Summary())
	}
	for _, ep := range rep.Episodes {
		if !ep.Escalated || !ep.Detected {
			t.Fatalf("episode: %+v", ep)
		}
	}
	if mc.Mode() != core.ModeNative {
		t.Fatalf("mode = %v after evacuations", mc.Mode())
	}
}
