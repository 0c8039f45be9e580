package obs

import (
	"sync"
	"testing"
)

func TestEventLogOrderAndSeq(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		l.Record(EvModeSwitch, int32(i), uint64(100+i), uint64(i), 0)
	}
	evs := l.Snapshot()
	if len(evs) != 5 || l.Len() != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Node != int32(i) || e.A != uint64(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d without overflow", l.Dropped())
	}
}

func TestEventLogOverwritesOldest(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Record(EvAdmissionGrant, 0, uint64(i), uint64(i), 0)
	}
	evs := l.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring retains %d, want 4", len(evs))
	}
	// The ring keeps the newest records; sequence numbers never reset.
	for i, e := range evs {
		want := uint64(6 + i)
		if e.Seq != want || e.A != want {
			t.Fatalf("slot %d: seq=%d a=%d, want %d", i, e.Seq, e.A, want)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d, want 10", l.Total())
	}
}

func TestEventLogReset(t *testing.T) {
	l := NewEventLog(2)
	for i := 0; i < 5; i++ {
		l.Record(EvWaveStart, -1, 0, 0, 0)
	}
	l.Reset()
	if l.Len() != 0 || l.Dropped() != 0 || l.Total() != 0 {
		t.Fatalf("reset left state: len=%d dropped=%d total=%d",
			l.Len(), l.Dropped(), l.Total())
	}
	l.Record(EvWaveDone, -1, 7, 1, 2)
	if evs := l.Snapshot(); len(evs) != 1 || evs[0].Seq != 0 {
		t.Fatalf("post-reset snapshot wrong: %+v", evs)
	}
}

func TestEventKindRoundTrip(t *testing.T) {
	for k := EvModeSwitch; k <= evKindLast; k++ {
		got, err := ParseEventKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := ParseEventKind("no-such-kind"); err == nil {
		t.Fatal("parse of unknown kind succeeded")
	}
}

func TestCollectorRegistersDropCounters(t *testing.T) {
	col := New(1)
	// Fill the span budget via a tiny tracer stand-in: the collector's
	// tracer uses the default budget, so drive the event log instead and
	// check both counters are reachable through the registry.
	for i := 0; i < EventLogCap+3; i++ {
		col.Events.Record(EvHealOK, 0, uint64(i), 0, 0)
	}
	if got := col.Registry.Counter("obs", "events_dropped_total").Load(); got != 3 {
		t.Fatalf("registry events_dropped_total = %d, want 3", got)
	}
	if got := col.Registry.Counter("obs", "spans_dropped_total").Load(); got != 0 {
		t.Fatalf("registry spans_dropped_total = %d, want 0", got)
	}
	// The registry handle and the tracer's own counter are one object.
	col.Tracer.dropped.Inc()
	if got := col.Registry.Counter("obs", "spans_dropped_total").Load(); got != 1 {
		t.Fatalf("adopted span-drop counter diverged: %d", got)
	}
}

// TestEventLogConcurrentWriters hammers one ring from many goroutines
// and checks the global accounting: nothing lost, nothing double
// counted, and the survivors are exactly the newest records in a total
// order that respects every writer's program order.
func TestEventLogConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		each    = 500
		ringCap = 64
	)
	l := NewEventLog(ringCap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Node = writer, A = the writer's own index, B mirrors
				// Node so torn records would be self-evident.
				l.Record(EvModeSwitch, int32(w), uint64(i), uint64(i), uint64(w))
			}
		}(w)
	}
	wg.Wait()

	const total = writers * each
	if got := l.Total(); got != total {
		t.Fatalf("total = %d, want %d", got, total)
	}
	if got := l.Dropped(); got != total-ringCap {
		t.Fatalf("dropped = %d, want %d", got, total-ringCap)
	}
	evs := l.Snapshot()
	if len(evs) != ringCap {
		t.Fatalf("snapshot holds %d, want %d", len(evs), ringCap)
	}
	lastIdx := make(map[int32]uint64)
	for i, e := range evs {
		// Overwrite-oldest means the survivors are the final ringCap
		// sequence numbers, contiguous and in emission order.
		if want := uint64(total - ringCap + i); e.Seq != want {
			t.Fatalf("slot %d: seq=%d, want %d", i, e.Seq, want)
		}
		if e.B != uint64(e.Node) || e.A != e.TS {
			t.Fatalf("torn record: %+v", e)
		}
		// Within one writer, later records carry larger indices: the
		// ring's total order embeds every writer's program order.
		if prev, ok := lastIdx[e.Node]; ok && e.A <= prev {
			t.Fatalf("writer %d reordered: %d after %d", e.Node, e.A, prev)
		}
		lastIdx[e.Node] = e.A
	}
}

// TestEventLogSnapshotUnderFire interleaves Snapshot with live writers:
// every snapshot must be internally consistent (contiguous ascending
// sequence numbers, no torn records, never more than cap), even though
// the ring keeps moving underneath.
func TestEventLogSnapshotUnderFire(t *testing.T) {
	const ringCap = 32
	l := NewEventLog(ringCap)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Record(EvHealOK, int32(w), uint64(i), uint64(i), uint64(w))
			}
		}(w)
	}
	for snap := 0; snap < 200; snap++ {
		evs := l.Snapshot()
		if len(evs) > ringCap {
			t.Fatalf("snapshot %d exceeds cap: %d", snap, len(evs))
		}
		for i, e := range evs {
			if i > 0 && e.Seq != evs[i-1].Seq+1 {
				t.Fatalf("snapshot %d not contiguous at %d: %d then %d",
					snap, i, evs[i-1].Seq, e.Seq)
			}
			if e.B != uint64(e.Node) || e.A != e.TS {
				t.Fatalf("snapshot %d torn record: %+v", snap, e)
			}
		}
	}
	close(stop)
	wg.Wait()
	if l.Total() != l.Dropped()+uint64(l.Len()) {
		t.Fatalf("accounting: total=%d dropped=%d len=%d",
			l.Total(), l.Dropped(), l.Len())
	}
}
