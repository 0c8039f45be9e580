package fleet

import "testing"

func req(n NodeID, at Tick) *Request { return &Request{Node: n, EnqueuedAt: at} }

func TestAdmissionBound(t *testing.T) {
	a := NewAdmission(2, 10, nil)
	for i := 0; i < 5; i++ {
		if !a.Submit(req(NodeID(i), 0)) {
			t.Fatalf("submit %d rejected with queue cap 10", i)
		}
	}
	granted, expired := a.Grant(0)
	if len(granted) != 2 || len(expired) != 0 {
		t.Fatalf("grant = %d granted, %d expired; want 2, 0", len(granted), len(expired))
	}
	if a.InUse() != 2 || a.Depth() != 3 {
		t.Fatalf("inUse=%d depth=%d; want 2, 3", a.InUse(), a.Depth())
	}
	// Bound holds while saturated.
	if g, _ := a.Grant(1); len(g) != 0 {
		t.Fatalf("granted %d past the bound", len(g))
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if g, _ := a.Grant(2); len(g) != 1 {
		t.Fatalf("after release, granted %d; want 1", len(g))
	}
	// FIFO: next grant is the oldest queued request.
	if g, _ := a.Grant(3); len(g) != 0 {
		t.Fatalf("granted %d with both slots in use", len(g))
	}
	if s := a.Stats(); s.MaxInUse != 2 {
		t.Fatalf("MaxInUse = %d; want 2", s.MaxInUse)
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission(1, 10, nil)
	a.Submit(req(7, 0))
	a.Submit(req(3, 1))
	g, _ := a.Grant(2)
	if len(g) != 1 || g[0].Node != 7 {
		t.Fatalf("grant order broken: got %+v", g)
	}
	a.Release()
	g, _ = a.Grant(3)
	if len(g) != 1 || g[0].Node != 3 {
		t.Fatalf("grant order broken: got %+v", g)
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	a := NewAdmission(1, 2, nil)
	if !a.Submit(req(0, 0)) || !a.Submit(req(1, 0)) {
		t.Fatal("submissions within capacity rejected")
	}
	if a.Submit(req(2, 0)) {
		t.Fatal("submission past queue capacity accepted")
	}
	s := a.Stats()
	if s.Rejected != 1 || s.Submitted != 3 {
		t.Fatalf("stats = %+v; want Rejected 1, Submitted 3", s)
	}
}

func TestAdmissionDeadline(t *testing.T) {
	a := NewAdmission(1, 10, nil)
	a.Submit(req(0, 0))
	if g, _ := a.Grant(0); len(g) != 1 {
		t.Fatal("first grant failed")
	}
	late := req(1, 0)
	late.Deadline = 5
	a.Submit(late)
	// Slot stays held past the deadline: the queued request expires.
	if _, exp := a.Grant(5); len(exp) != 0 {
		t.Fatal("expired at its deadline tick (deadline is inclusive)")
	}
	_, exp := a.Grant(6)
	if len(exp) != 1 || exp[0].Node != 1 {
		t.Fatalf("expired = %+v; want node 1", exp)
	}
	if a.Depth() != 0 {
		t.Fatalf("depth = %d after expiry; want 0", a.Depth())
	}
	if s := a.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d; want 1", s.Expired)
	}
}

func TestAdmissionFlush(t *testing.T) {
	a := NewAdmission(1, 10, nil)
	a.Submit(req(0, 0))
	a.Grant(0)
	a.Submit(req(1, 0))
	a.Submit(req(2, 0))
	if n := a.Flush(); n != 2 {
		t.Fatalf("flushed %d; want 2", n)
	}
	if a.Depth() != 0 {
		t.Fatalf("depth = %d after flush; want 0", a.Depth())
	}
	if a.InUse() != 1 {
		t.Fatalf("flush released a granted slot: inUse = %d", a.InUse())
	}
	if s := a.Stats(); s.Canceled != 2 {
		t.Fatalf("Canceled = %d; want 2", s.Canceled)
	}
}

func TestAdmissionReleaseUnderflow(t *testing.T) {
	a := NewAdmission(1, 1, nil)
	if err := a.Release(); err == nil {
		t.Fatal("release with no slot in use succeeded")
	}
}

func TestDeriveMaxVirtual(t *testing.T) {
	cases := []struct {
		nodes, want int
	}{
		{10, 6}, // 10·10/15
		{4, 2},  // 4·10/15 = 2.67
		{1, 1},  // floor clamp
		{2, 1},  // 2·10/15 = 1.33
		{8, 5},  // 8·10/15 = 5.33
	}
	for _, c := range cases {
		if got := DeriveMaxVirtual(c.nodes); got != c.want {
			t.Errorf("DeriveMaxVirtual(%d) = %d; want %d", c.nodes, got, c.want)
		}
	}
}
