package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// newMercuryDeferrals builds a Mercury system with a small deferral
// budget so starvation tests stay fast.
func newMercuryDeferrals(t *testing.T, maxDeferrals int) *Mercury {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: 1})
	mc, err := New(Config{Machine: m, Policy: TrackRecompute, MaxDeferrals: maxDeferrals})
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// voHolder is the fault-injection hold on the VO refcount.
type voHolderIface interface {
	Hold()
	Unhold()
}

// TestChaosSwitchStarvationBudget: a sensitive section that never
// drains must not make the switch retry forever — after MaxDeferrals
// the request clears and LastSwitchError reports starvation, and once
// the section drains a fresh request commits.
func TestChaosSwitchStarvationBudget(t *testing.T) {
	mc := newMercuryDeferrals(t, 2)
	c := mc.M.BootCPU()
	h, ok := mc.K.VO().(voHolderIface)
	if !ok {
		t.Fatalf("VO %q has no refcount hold", mc.K.VO().Name())
	}

	h.Hold()
	err := mc.SwitchSync(c, ModePartialVirtual)
	if err == nil {
		t.Fatal("switch committed with a held VO refcount")
	}
	if !strings.Contains(err.Error(), "starved by sensitive code") {
		t.Fatalf("starvation not reported: %v", err)
	}
	if mc.Mode() != ModeNative {
		t.Fatalf("mode = %v after starved switch", mc.Mode())
	}
	if got := mc.Stats.StarvedSwitches.Load(); got != 1 {
		t.Fatalf("StarvedSwitches = %d", got)
	}
	if got := mc.Stats.Deferred.Load(); got != 2 {
		t.Fatalf("Deferred = %d (budget was 2)", got)
	}
	if e := mc.LastSwitchError(); e == nil || !strings.Contains(e.Error(), "starved") {
		t.Fatalf("LastSwitchError = %v", e)
	}

	// The request cleared: once the section drains, a new one commits.
	h.Unhold()
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatalf("switch after drain: %v", err)
	}
	if mc.Mode() != ModePartialVirtual {
		t.Fatalf("mode = %v", mc.Mode())
	}
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSelfHealMultiSensorSingleWindow: two tripped sensors are
// both repaired inside one attach window, with per-sensor outcomes.
func TestChaosSelfHealMultiSensorSingleWindow(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	mc.K.InjectRunqueueCorruption(nil)
	mc.M.Sensors.Set(hw.SensorCPUTempC, 96)
	bank := mc.M.Sensors

	rep, err := mc.SelfHeal(c, []Sensor{
		RunqueueSensor(), // repairs via the fallback
		{
			Name:   "failure-predictor",
			Check:  func(*hw.CPU, *guest.Kernel) error { return DefaultPredictor().Predict(bank) },
			Repair: func(*hw.CPU, *Mercury) error { bank.Set(hw.SensorCPUTempC, 52); return nil },
		},
	}, RunqueueRepair())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Healed {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Outcomes) != 2 {
		t.Fatalf("outcomes: %+v", rep.Outcomes)
	}
	for _, out := range rep.Outcomes {
		if !out.Healed || out.Err != "" {
			t.Fatalf("sensor %s not healed: %+v", out.Sensor, out)
		}
	}
	// One attach window for both repairs.
	if mc.Stats.Attaches.Load() != 1 || mc.Stats.Detaches.Load() != 1 {
		t.Fatalf("attaches=%d detaches=%d", mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load())
	}
	if mc.Mode() != ModeNative {
		t.Fatal("not back to native after healing")
	}
}

// TestChaosHealingFailureRestoresMode: a repair that fails leaves
// Healed=false, surfaces the error, and still restores native mode.
func TestChaosHealingFailureRestoresMode(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	mc.K.InjectRunqueueCorruption(nil)

	rep, err := mc.SelfHeal(c, []Sensor{RunqueueSensor()},
		func(*hw.CPU, *Mercury) error { return fmt.Errorf("repair tool broken") })
	if err == nil || !strings.Contains(err.Error(), "repair tool broken") {
		t.Fatalf("repair failure not surfaced: %v", err)
	}
	if rep == nil || rep.Healed {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Outcomes) != 1 || rep.Outcomes[0].Healed || rep.Outcomes[0].Err == "" {
		t.Fatalf("outcomes: %+v", rep.Outcomes)
	}
	if mc.Mode() != ModeNative {
		t.Fatalf("mode = %v after failed healing", mc.Mode())
	}
	mc.K.RepairRunqueue(c)
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestChaosHealingEscalatesToEvacuation: when the repair fails and a
// standby node exists, the healing path escalates into §6.5 evacuation
// and releases the node.
func TestChaosHealingEscalatesToEvacuation(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	dstV, dstDom0, _ := spareNode(t)
	mc.K.InjectRunqueueCorruption(nil)

	rep, err := mc.HealOrEvacuate(c, []Sensor{RunqueueSensor()},
		func(*hw.CPU, *Mercury) error { return fmt.Errorf("repair tool broken") },
		dstV, dstDom0, migrate.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Escalated {
		t.Fatalf("no escalation: %+v", rep)
	}
	if rep.Heal == nil || rep.Heal.Healed {
		t.Fatalf("heal report: %+v", rep.Heal)
	}
	if rep.Evacuation == nil || !rep.Evacuation.NodeReleased {
		t.Fatalf("evacuation report: %+v", rep.Evacuation)
	}
	if mc.Mode() != ModeNative {
		t.Fatalf("mode = %v after evacuation", mc.Mode())
	}
}

// TestChaosEvacuationFailureMidCampaign: when the standby cannot take
// the hosted domain, migrate.Live fails, the error is surfaced, and the
// node stays attached — it cannot abandon a live guest.
func TestChaosEvacuationFailureMidCampaign(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	// A standby too small to receive anything: nearly all of its free
	// memory goes to its dom0.
	dst, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 3500)
	if err != nil {
		t.Fatal(err)
	}
	dstV, dstDom0 := dst.V, dst.Dom0

	// Host a domain bigger than the standby's leftover memory.
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "job", 4096); err != nil {
		t.Fatal(err)
	}

	mc.K.InjectRunqueueCorruption(nil)
	rep, err := mc.HealOrEvacuate(c, []Sensor{RunqueueSensor()},
		func(*hw.CPU, *Mercury) error { return fmt.Errorf("repair tool broken") },
		dstV, dstDom0, migrate.LiveConfig{})
	if err == nil || !strings.Contains(err.Error(), "evacuating") {
		t.Fatalf("evacuation failure not surfaced: %v", err)
	}
	if rep == nil || !rep.Escalated {
		t.Fatalf("no escalation: %+v", rep)
	}
	if rep.Evacuation == nil || rep.Evacuation.NodeReleased {
		t.Fatalf("evacuation report: %+v", rep.Evacuation)
	}
	// The node must not abandon its live guest: still attached.
	if mc.Mode() != ModePartialVirtual {
		t.Fatalf("mode = %v with a live hosted domain", mc.Mode())
	}
}

// TestChaosInvariantsCleanSystem: the system-wide checker passes in
// both modes on an untouched system.
func TestChaosInvariantsCleanSystem(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatalf("native invariants: %v", err)
	}
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatalf("virtual invariants: %v", err)
	}
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatalf("post-cycle invariants: %v", err)
	}
}

// TestInvariantsCatchPinWhileNative: under the recompute policy a
// detach drops every pin, so a frame still pinned while native is a
// breach. The planted entry is otherwise well-formed (one typed L2 ref
// and one existence ref), so only the pin check can catch it.
func TestInvariantsCatchPinWhileNative(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	const pfn = 300
	saved := mc.VMM.FT.Get(pfn)
	mc.VMM.FT.Set(pfn, xen.FrameInfo{Owner: saved.Owner, Type: xen.FrameL2,
		TypeCount: 1, TotalRefs: 1, Pinned: true})
	err := mc.CheckInvariants(c)
	if want := "invariant: frame 300 still pinned while native"; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
	mc.VMM.FT.Set(pfn, saved)
	if err := mc.CheckInvariants(c); err != nil {
		t.Fatalf("restored entry: %v", err)
	}
}
