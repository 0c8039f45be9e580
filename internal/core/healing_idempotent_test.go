package core

import "testing"

// Two sensors watching the same state both trip on one corruption; the
// first repair fixes the queue and the second finds nothing left to do.
// A repair that leaves a healthy queue healthy has succeeded — it must
// not report "nothing to repair" as a failure.
func TestRunqueueRepairIdempotentAcrossSensors(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	mc.K.InjectRunqueueCorruption(nil)

	sensors := []Sensor{RunqueueSensor(), RunqueueSensor()}
	rep, err := mc.SelfHeal(c, sensors, RunqueueRepair())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Healed {
		t.Fatalf("healing episode not fully healed: %+v", rep)
	}
	if len(rep.Outcomes) != 2 {
		t.Fatalf("expected both sensors to trip, got %d outcomes", len(rep.Outcomes))
	}
	for _, out := range rep.Outcomes {
		if !out.Healed {
			t.Fatalf("sensor %s failed to heal: %s", out.Sensor, out.Err)
		}
	}
	if mc.Mode() != ModeNative {
		t.Fatal("system not back in native mode")
	}
	if err := mc.K.CheckRunqueue(nil); err != nil {
		t.Fatalf("runqueue still corrupt: %v", err)
	}
}

// The repair is directly idempotent too: running it on an already-clean
// queue is a no-op success, while a queue that cannot be repaired still
// reports failure.
func TestRunqueueRepairOnHealthyQueueSucceeds(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	repair := RunqueueRepair()

	mc.K.InjectRunqueueCorruption(nil)
	if err := repair(c, mc); err != nil {
		t.Fatalf("first repair: %v", err)
	}
	if err := repair(c, mc); err != nil {
		t.Fatalf("second repair on healthy queue: %v", err)
	}
	if err := mc.K.CheckRunqueue(nil); err != nil {
		t.Fatalf("runqueue: %v", err)
	}
}
