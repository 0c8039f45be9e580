package fleet

import (
	"errors"
	"testing"

	"repro/internal/guest"
	"repro/internal/obs"
)

func countKind(evs []obs.Event, kind obs.EventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestWaveRecordsFlightRecorder: a clean checkpoint wave leaves a full
// audit trail in the event log — the wave bracket, one admission grant
// and heal verdict per node, and the node-side mode switches recorded
// by the core switch ISR, attributed by node ID.
func TestWaveRecordsFlightRecorder(t *testing.T) {
	col := obs.New(1)
	cfg := testConfig(4, false)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint, BatchSize: 1}); err != nil {
		t.Fatal(err)
	}

	evs := col.Events.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no flight-recorder events")
	}
	if evs[0].Kind != obs.EvWaveStart || evs[0].Node != -1 {
		t.Errorf("first event = %v node %d; want fleet-level wave-start", evs[0].Kind, evs[0].Node)
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.EvWaveDone || last.A != 4 {
		t.Errorf("last event = %v (A=%d); want wave-done with 4 completed", last.Kind, last.A)
	}
	if n := countKind(evs, obs.EvAdmissionGrant); n != 4 {
		t.Errorf("admission grants = %d; want 4", n)
	}
	if n := countKind(evs, obs.EvHealOK); n != 4 {
		t.Errorf("heal-ok = %d; want 4", n)
	}
	if n := countKind(evs, obs.EvCheckpointDone); n != 4 {
		t.Errorf("checkpoint-done = %d; want 4", n)
	}
	// Each node's attach and detach land as core-recorded mode switches.
	if n := countKind(evs, obs.EvModeSwitch); n != 8 {
		t.Errorf("mode-switch = %d; want 8 (attach+detach per node)", n)
	}
	// Node attribution: every node ID appears.
	seen := map[int32]bool{}
	for _, e := range evs {
		if e.Kind == obs.EvModeSwitch {
			seen[e.Node] = true
		}
	}
	for id := int32(0); id < 4; id++ {
		if !seen[id] {
			t.Errorf("no mode-switch event attributed to node %d", id)
		}
	}
}

// TestWaveAbortRecorded: a PreAttach fault aborts the wave and the
// flight recorder says so.
func TestWaveAbortRecorded(t *testing.T) {
	col := obs.New(1)
	cfg := testConfig(2, false)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc.PreAttach = func(n *Node, p *guest.Proc) (func(), error) {
		return nil, errors.New("injected pre-attach fault")
	}
	if _, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint}); err == nil {
		t.Fatal("wave unexpectedly succeeded")
	}
	evs := col.Events.Snapshot()
	if n := countKind(evs, obs.EvWaveAbort); n != 1 {
		t.Errorf("wave-abort events = %d; want 1", n)
	}
	if n := countKind(evs, obs.EvWaveDone); n != 0 {
		t.Errorf("wave-done events = %d after abort; want 0", n)
	}
}

// TestSnapshotAndOnTick: the OnTick hook fires on the fleet clock and
// Snapshot reports consistent fleet state, including the switch-latency
// tails once maintenances have completed.
func TestSnapshotAndOnTick(t *testing.T) {
	col := obs.New(1)
	cfg := testConfig(3, false)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pre := fc.Snapshot()
	if pre.Nodes != 3 || pre.Maintained != 0 || pre.P99AttachCyc != 0 {
		t.Errorf("pre-wave snapshot %+v; want 3 idle nodes", pre)
	}

	ticks := 0
	fc.OnTick = func(now Tick) {
		ticks++
		s := fc.Snapshot()
		if s.Tick != now {
			t.Errorf("snapshot tick %d during OnTick(%d)", s.Tick, now)
		}
		if s.SlotsInUse > s.SlotsMax {
			t.Errorf("slots in use %d > max %d", s.SlotsInUse, s.SlotsMax)
		}
	}
	if _, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint}); err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("OnTick never fired")
	}

	post := fc.Snapshot()
	if post.Maintained != 3 {
		t.Errorf("maintained = %d; want 3", post.Maintained)
	}
	if post.P99AttachCyc <= 0 || post.P99DetachCyc <= 0 {
		t.Errorf("p99 attach/detach = %.0f/%.0f; want > 0 after a wave",
			post.P99AttachCyc, post.P99DetachCyc)
	}
	if post.EventsTotal == 0 || post.EventsTotal != col.Events.Total() {
		t.Errorf("events total %d; log says %d", post.EventsTotal, col.Events.Total())
	}
	if len(post.PerNode) != 3 {
		t.Fatalf("per-node rows = %d; want 3", len(post.PerNode))
	}
	for _, n := range post.PerNode {
		if n.Mode != "native" || n.State != "serving" {
			t.Errorf("node %d post-wave: mode=%s state=%s; want native/serving",
				n.ID, n.Mode, n.State)
		}
	}
}

// TestSnapshotCountsWithoutCollector: the maintenance and admission
// counts are the fleet's own, not the telemetry's, so a fleet built
// without a collector reports them too.
func TestSnapshotCountsWithoutCollector(t *testing.T) {
	fc, err := New(testConfig(2, false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	if s := fc.Snapshot(); s.Maintained != 2 {
		t.Errorf("maintained = %d; want 2", s.Maintained)
	}
	if a := rep.Admission; a.Submitted != 2 || a.Granted != 2 || a.Rejected != 0 || a.Expired != 0 {
		t.Errorf("admission %+v; want 2 submitted and granted", a)
	}
}

// TestMigrationEventsRecorded: a migrate wave logs one commit per node
// with its downtime payload.
func TestMigrationEventsRecorded(t *testing.T) {
	col := obs.New(1)
	cfg := testConfig(2, true)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RunWave(WaveConfig{Action: ActionMigrate}); err != nil {
		t.Fatal(err)
	}
	evs := col.Events.Snapshot()
	commits := 0
	for _, e := range evs {
		if e.Kind == obs.EvMigrationCommit {
			commits++
			if e.A == 0 {
				t.Errorf("migration commit on node %d with zero downtime payload", e.Node)
			}
		}
	}
	if commits != 2 {
		t.Errorf("migration commits = %d; want 2", commits)
	}
}
