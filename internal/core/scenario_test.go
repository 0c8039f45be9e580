package core

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw"
)

func TestLiveUpdatePatchesHandlerAndReturnsNative(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	patched := false
	oldGate := mc.K.IDT.Get(hw.VecNIC)
	patch := KernelPatch{
		Name: "cve-fix-nic-isr",
		Apply: func(k *guest.Kernel) error {
			k.IDT.Set(hw.VecNIC, hw.Gate{Present: true, Target: hw.PL0,
				Handler: func(cc *hw.CPU, f *hw.TrapFrame) {
					patched = true
					if oldGate.Present {
						oldGate.Handler(cc, f)
					}
				}})
			return nil
		},
		Validate: func(k *guest.Kernel) error {
			if !k.IDT.Get(hw.VecNIC).Present {
				return fmt.Errorf("gate lost")
			}
			return nil
		},
	}
	rep, err := mc.LiveUpdate(c, patch)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WasNative || mc.Mode() != ModeNative {
		t.Fatal("system did not return to native mode")
	}
	if rep.AttachedForUS <= 0 {
		t.Fatal("no attach window recorded")
	}
	// The patched handler is live: raise the NIC vector.
	c.LAPIC.Post(nil, hw.VecNIC)
	c.Charge(10)
	if !patched {
		t.Fatal("patched handler not dispatched")
	}
	if mc.Stats.Attaches.Load() != 1 || mc.Stats.Detaches.Load() != 1 {
		t.Fatal("update did not attach/detach exactly once")
	}
}

func TestLiveUpdateFailedApplyDetaches(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	_, err := mc.LiveUpdate(c, KernelPatch{
		Name:  "bad",
		Apply: func(k *guest.Kernel) error { return fmt.Errorf("nope") },
	})
	if err == nil {
		t.Fatal("failed patch reported success")
	}
	if mc.Mode() != ModeNative {
		t.Fatal("failed update left the VMM attached")
	}
}

func TestSelfHealingRepairsRunqueue(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	sensors := []Sensor{RunqueueSensor()}

	// Quiet system: no healing episode.
	rep, err := mc.SelfHeal(c, sensors, RunqueueRepair())
	if err != nil || rep != nil {
		t.Fatalf("healthy system healed: %v %v", rep, err)
	}

	// Inject corruption; the sensor fires, the VMM attaches, repairs,
	// and detaches.
	mc.K.InjectRunqueueCorruption(nil)
	rep, err = mc.SelfHeal(c, sensors, RunqueueRepair())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Healed {
		t.Fatalf("healing failed: %+v", rep)
	}
	if rep.Sensor != "runqueue-integrity" {
		t.Fatalf("wrong sensor: %s", rep.Sensor)
	}
	if mc.Mode() != ModeNative {
		t.Fatal("system not back in native mode")
	}
	if err := mc.K.CheckRunqueue(nil); err != nil {
		t.Fatalf("runqueue still corrupt: %v", err)
	}
}

func TestSelfHealingPersistentAnomalyReported(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	badSensor := Sensor{Name: "always-bad",
		Check: func(c *hw.CPU, k *guest.Kernel) error { return fmt.Errorf("anomaly") }}
	rep, err := mc.SelfHeal(c, []Sensor{badSensor},
		func(cc *hw.CPU, m *Mercury) error { return nil })
	if err == nil {
		t.Fatal("persistent anomaly not reported")
	}
	if rep == nil || rep.Healed {
		t.Fatal("report claims healed")
	}
	if mc.Mode() != ModeNative {
		t.Fatal("VMM left attached after failed healing")
	}
}
