package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// spareNode builds the healthy destination VMM.
func spareNode(t *testing.T) (*xen.VMM, *xen.Domain, *hw.CPU) {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 128 << 20, NumCPUs: 1}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return h.V, h.Dom0, h.C
}

func TestPredictorThresholds(t *testing.T) {
	fp := DefaultPredictor()
	s := hw.NewSensorBank()
	if err := fp.Predict(s); err != nil {
		t.Fatalf("nominal sensors predicted failure: %v", err)
	}
	cases := []struct {
		sensor string
		value  float64
	}{
		{hw.SensorCPUTempC, 99},
		{hw.SensorFanRPM, 500},
		{hw.SensorCoreVolt, 0.9},
		{hw.SensorPSUVolt, 14.0},
	}
	for _, tc := range cases {
		s := hw.NewSensorBank()
		s.Set(tc.sensor, tc.value)
		if err := fp.Predict(s); err == nil {
			t.Errorf("%s=%v not predicted as failure", tc.sensor, tc.value)
		}
	}
}

func TestEvacuateOnFailureFullFlow(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	dstV, dstDom0, _ := spareNode(t)

	// Host a guest with live state.
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "job", 512)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := domU.Frames.Range()
	for i := 0; i < 128; i++ {
		mc.M.Mem.WriteWord((lo + hw.PFN(i)).Addr(), uint32(0xBEEF0000+i))
	}

	// Healthy: no evacuation.
	fp := DefaultPredictor()
	rep, err := mc.EvacuateOnFailure(c, fp, dstV, dstDom0, migrate.LiveConfig{})
	if err != nil || rep != nil {
		t.Fatalf("healthy node evacuated: %v %v", rep, err)
	}

	// Overheat: evacuate, verify payload, node released to native.
	mc.M.Sensors.Set(hw.SensorCPUTempC, 92)
	rep, err = mc.EvacuateOnFailure(c, fp, dstV, dstDom0, migrate.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Evacuated) != 1 || !rep.NodeReleased {
		t.Fatalf("report: %+v", rep)
	}
	if mc.Mode() != ModeNative {
		t.Fatal("node not released to native mode")
	}
	// Find the landed domain and verify its memory.
	var landed *xen.Domain
	for _, d := range dstV.Domains {
		if d.Name == "job-migrated" {
			landed = d
		}
	}
	if landed == nil {
		t.Fatal("migrated domain missing on the spare")
	}
	lo2, _ := landed.Frames.Range()
	for i := 0; i < 128; i++ {
		if got := dstV.M.Mem.ReadWord((lo2 + hw.PFN(i)).Addr()); got != uint32(0xBEEF0000+i) {
			t.Fatalf("frame %d payload = %#x", i, got)
		}
	}
}

func TestEvacuateFromNativeModeAttachesFirst(t *testing.T) {
	// A node in native mode must self-virtualize before it can migrate
	// anything — the §6.5 flow starting from full speed.
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	dstV, dstDom0, _ := spareNode(t)

	mc.M.Sensors.Set(hw.SensorFanRPM, 100)
	rep, err := mc.EvacuateOnFailure(c, DefaultPredictor(), dstV, dstDom0,
		migrate.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing was hosted, but the node attached, swept, and released.
	if rep == nil || len(rep.Evacuated) != 0 || !rep.NodeReleased {
		t.Fatalf("report: %+v", rep)
	}
	if mc.Stats.Attaches.Load() != 1 || mc.Stats.Detaches.Load() != 1 {
		t.Fatal("evacuation did not attach/detach exactly once")
	}
	if mc.Mode() != ModeNative {
		t.Fatal("node left virtualized")
	}
}
