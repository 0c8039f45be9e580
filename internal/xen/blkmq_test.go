package xen

import (
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// mqEnv wires a multi-queue backend between two domains, with the
// frontend side driven by hand (the guest-layer frontend is tested in
// internal/workloads).
func mqEnv(t *testing.T, queues, depth, threshold int) (*VMM, *Domain, *Domain, *hw.CPU, *BlkMQBackend) {
	t.Helper()
	v, d0, dU, c := twoDomains(t)
	be := NewBlkMQBackend(v, d0, v.M.Disk, queues, depth, threshold)
	return v, d0, dU, c, be
}

// pushGrants grants n fresh frames from dU and pushes write requests
// for them on queue q, returning the refs and whether the push said to
// notify.
func pushGrants(c *hw.CPU, v *VMM, dU *Domain, be *BlkMQBackend, qi int, startID, startBlock uint64, n int) (refs []GrantRef, notify bool) {
	reqs := make([]BlkRequest, n)
	for i := 0; i < n; i++ {
		pfn := dU.Frames.Alloc()
		fb := v.M.Mem.FrameBytes(pfn)
		for j := range fb {
			fb[j] = byte(startID + uint64(i))
		}
		ref := dU.GrantAccess(c, be.Dom.ID, pfn, true)
		refs = append(refs, ref)
		reqs[i] = BlkRequest{
			ID: startID + uint64(i), Block: startBlock + uint64(i),
			Write: true, Grant: ref, Front: dU.ID,
		}
	}
	pushed, notify := be.Queues[qi].Ring.PushRequests(c, reqs)
	if pushed != n {
		panic("push fell short")
	}
	return refs, notify
}

func TestBlkMQRoundTripAndMerge(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 2, 64, 1)
	diskBefore := v.M.Disk.Stats.Requests
	if _, notify := pushGrants(c, v, dU, be, 0, 0, 100, 8); !notify {
		t.Fatal("first push must notify")
	}
	if served := be.PollQueue(c, be.Queues[0]); served != 8 {
		t.Fatalf("served %d of 8", served)
	}
	// 8 contiguous same-direction blocks: one merged disk request.
	if got := v.M.Disk.Stats.Requests - diskBefore; got != 1 {
		t.Fatalf("8 contiguous blocks took %d disk requests", got)
	}
	if be.Stats.Merges.Load() != 7 {
		t.Fatalf("merges = %d", be.Stats.Merges.Load())
	}
	resp := make([]BlkResponse, 64)
	if n := be.Queues[0].Ring.TakeResponses(c, resp); n != 8 {
		t.Fatalf("got %d responses", n)
	}
	for i := 0; i < 8; i++ {
		if resp[i].Err != "" {
			t.Fatalf("response %d: %s", i, resp[i].Err)
		}
	}
}

func TestBlkMQGrantBatchPerRun(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 1, 64, 1)
	col := obs.New(1)
	v.M.SetTelemetry(col)
	pushGrants(c, v, dU, be, 0, 0, 10, 16)
	be.PollQueue(c, be.Queues[0])
	batches := col.Registry.Counter("xen", "grant_map_batches_total").Load()
	refs := col.Registry.Counter("xen", "grant_map_batch_refs_total").Load()
	if batches != 1 || refs != 16 {
		t.Fatalf("grant batches=%d refs=%d, want 1/16", batches, refs)
	}
}

func TestBlkMQDoorbellCoalescing(t *testing.T) {
	// depth 64, threshold depth/4 = 16: after the backend drains and
	// re-arms, a trickle of single-request pushes rings once per 16.
	v, _, dU, c, be := mqEnv(t, 1, 64, 16)
	q := be.Queues[0]
	pushGrants(c, v, dU, be, 0, 0, 0, 1)
	be.PollQueue(c, q) // drain + re-arm 16 ahead
	resp := make([]BlkResponse, 64)
	q.Ring.TakeResponses(c, resp)

	kicks := 0
	for i := 0; i < 35; i++ {
		_, notify := pushGrants(c, v, dU, be, 0, uint64(100+i), uint64(200+i*2), 1)
		if notify {
			kicks++
			be.PollQueue(c, q)
			q.Ring.TakeResponses(c, resp)
		}
	}
	if kicks != 2 {
		t.Fatalf("35 trickled requests rang %d doorbells, want 2 (threshold 16)", kicks)
	}
	// Whatever the trickle left queued is served by a scheduler slice.
	if q.Ring.RequestsPending() == 0 {
		t.Fatal("expected a sub-threshold tail to be pending")
	}
	be.Serve(c, 1<<30)
	if q.Ring.RequestsPending() != 0 {
		t.Fatal("Serve left requests pending")
	}
	st := &q.Ring.Stats
	slots := st.ReqSlots.Load() + st.RespSlots.Load()
	rung := st.ReqKicks.Load() + st.RespKicks.Load()
	if ratio := float64(slots) / float64(rung); ratio < 5 {
		t.Fatalf("suppression ratio %.1f < 5 at depth 64", ratio)
	}
}

func TestBlkMQServeHonorsBudgetAndQueues(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 4, 16, 1)
	for qi := 0; qi < 4; qi++ {
		pushGrants(c, v, dU, be, qi, uint64(qi*100), uint64(qi*1000), 4)
	}
	be.Serve(c, 1<<30)
	if be.Pending() != 0 {
		t.Fatalf("pending %d after Serve", be.Pending())
	}
	if be.Stats.Requests.Load() != 16 {
		t.Fatalf("served %d of 16", be.Stats.Requests.Load())
	}
	// Zero budget: at most one sweep's worth of progress per call, so a
	// stalled-clock caller cannot spin forever.
	pushGrants(c, v, dU, be, 0, 500, 5000, 2)
	be.Serve(c, 0)
	if be.Pending() != 0 {
		t.Fatal("single sweep did not drain a small burst")
	}
}

func TestBlkMQStallAndAudit(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 2, 16, 1)
	be.StallQueue(1, true)
	pushGrants(c, v, dU, be, 1, 0, 50, 3)
	if msg := be.Audit(); msg != "" {
		t.Fatalf("first audit must arm, got %q", msg)
	}
	be.Serve(c, 1<<30) // service attempt; queue 1 is wedged
	msg := be.Audit()
	if msg == "" {
		t.Fatal("stalled queue not detected")
	}
	be.StallQueue(1, false)
	be.Serve(c, 1<<30)
	if msg := be.Audit(); msg != "" {
		t.Fatalf("recovered queue still flagged: %q", msg)
	}
	_ = v
	_ = dU
}

func TestBlkMQBadGrantFailsRun(t *testing.T) {
	_, _, dU, c, be := mqEnv(t, 1, 16, 1)
	q := be.Queues[0]
	q.Ring.PushRequests(c, []BlkRequest{
		{ID: 7, Block: 3, Write: true, Grant: 999, Front: dU.ID},
	})
	be.PollQueue(c, q)
	resp := make([]BlkResponse, 16)
	if n := q.Ring.TakeResponses(c, resp); n != 1 || resp[0].Err == "" {
		t.Fatalf("bad grant: n=%d err=%q", n, resp[0].Err)
	}
}

// TestBlkMQCountersAdoptedByRegistry: with a collector installed at
// construction, the backend's request and event counts are the
// registry's xen/backend_*_total{dev=blk} counters, not copies.
func TestBlkMQCountersAdoptedByRegistry(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	col := obs.New(1)
	v.M.SetTelemetry(col)
	be := NewBlkMQBackend(v, d0, v.M.Disk, 1, 16, 1)
	pushGrants(c, v, dU, be, 0, 0, 10, 4)
	be.OnQueueEvent(0)(c)
	reg := col.Registry
	if got := reg.Counter("xen", "backend_requests_total", obs.L("dev", "blk")).Load(); got != 4 || be.Stats.Requests.Load() != 4 {
		t.Fatalf("requests: registry %d, stats %d, want 4", got, be.Stats.Requests.Load())
	}
	if got := reg.Counter("xen", "backend_events_total", obs.L("dev", "blk")).Load(); got != 1 || be.Stats.Events.Load() != 1 {
		t.Fatalf("events: registry %d, stats %d, want 1", got, be.Stats.Events.Load())
	}
}

// hookDisk runs hook once, inside the next Submit: work of a second CPU
// landing while this one is mid-transfer. The hook runs before the
// transfer, or after it when after is set.
type hookDisk struct {
	memDisk
	hook  func()
	after bool
}

func (d *hookDisk) Submit(c *hw.CPU, req hw.DiskRequest, buf []byte) error {
	h := d.hook
	d.hook = nil
	if h != nil && !d.after {
		h()
	}
	err := d.memDisk.Submit(c, req, buf)
	if h != nil && d.after {
		h()
	}
	return err
}

// TestBlkMQOneDrainerPerQueue: a drain of a queue that another drain
// is already serving returns at once, and the first drain's FINAL CHECK
// loop serves what arrived meanwhile: every request completes once.
func TestBlkMQOneDrainerPerQueue(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	dev := &hookDisk{memDisk: memDisk{blocks: map[uint64][]byte{}}}
	be := NewBlkMQBackend(v, d0, dev, 1, 16, 1)
	q := be.Queues[0]
	nested := -1
	dev.hook = func() {
		pushGrants(c, v, dU, be, 0, 10, 100, 4)
		nested = be.PollQueue(c, q)
	}
	pushGrants(c, v, dU, be, 0, 0, 0, 4)
	if served := be.PollQueue(c, q); served != 8 || nested != 0 {
		t.Fatalf("outer drain served %d (want 8), nested drain %d (want 0)", served, nested)
	}
	resp := make([]BlkResponse, 16)
	n := q.Ring.TakeResponses(c, resp)
	seen := map[uint64]int{}
	for _, r := range resp[:n] {
		seen[r.ID]++
	}
	for _, id := range []uint64{0, 1, 2, 3, 10, 11, 12, 13} {
		if seen[id] != 1 {
			t.Fatalf("request %d completed %d times (responses %v)", id, seen[id], resp[:n])
		}
	}
}

// absorbBlock puts one block whose bytes are all fill into be's
// write-behind cache, as a served write run does.
func absorbBlock(c *hw.CPU, be *BlkMQBackend, block uint64, fill byte) {
	buf := make([]byte, hw.BlockSize)
	for i := range buf {
		buf[i] = fill
	}
	be.absorb(c, []BlkRequest{{Block: block, Write: true}}, buf)
}

// TestBlkMQWriteBehindOneFlusher: a write that reaches the limit while
// a flush is writing out an older copy of the same block must neither
// start a second flush nor lose the newer copy: a read sees it, and the
// next flush puts it on the disk.
func TestBlkMQWriteBehindOneFlusher(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	dev := &hookDisk{memDisk: memDisk{blocks: map[uint64][]byte{}}}
	be := NewBlkMQBackend(v, d0, dev, 1, 16, 1)
	be.WriteBehind = true
	for b := uint64(1); b < writeBehindLimit; b++ {
		absorbBlock(c, be, b, 1)
	}
	// The other CPU rewrites block 1 while the flush is writing its first
	// copy, and a further write keeps the cache at the limit.
	dev.hook = func() {
		absorbBlock(c, be, 1, 2)
		absorbBlock(c, be, writeBehindLimit+5, 2)
	}
	absorbBlock(c, be, writeBehindLimit, 1) // reaches the limit: flush
	if got := dev.blocks[1][0]; got != 1 {
		t.Fatalf("disk block 1 = %#x after the first flush, want its first copy 0x01", got)
	}
	if got := readBlock(t, c, v, dU, be, 1, 1); got != 2 {
		t.Fatalf("read of block 1 = %#x, want the newer copy 0x02", got)
	}
	be.flushWriteBehind(c)
	if got := dev.blocks[1][0]; got != 2 {
		t.Fatalf("disk block 1 = %#x after the second flush, want 0x02", got)
	}
	if len(be.wbCache) != 0 {
		t.Fatalf("%d blocks left in the cache after a quiet flush", len(be.wbCache))
	}
}

// TestBlkMQWriteBehindReadDuringFlush: a flush that writes a block and
// drops it from the cache between a read's disk transfer and the read's
// cache overlay must not make the read return the old disk contents.
func TestBlkMQWriteBehindReadDuringFlush(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	dev := &hookDisk{memDisk: memDisk{blocks: map[uint64][]byte{}}, after: true}
	be := NewBlkMQBackend(v, d0, dev, 1, 16, 1)
	be.WriteBehind = true
	absorbBlock(c, be, 7, 0x5A)
	dev.hook = func() { be.flushWriteBehind(c) } // runs after the read's transfer
	if got := readBlock(t, c, v, dU, be, 1, 7); got != 0x5A {
		t.Fatalf("read racing a flush = %#x, want the cached 0x5a", got)
	}
	if got := dev.blocks[7][0]; got != 0x5A || len(be.wbCache) != 0 {
		t.Fatalf("flush inside the read: disk %#x, %d cached", got, len(be.wbCache))
	}
}

// TestBackendCountersSharedOnOneCollector: two block backends and two
// net backends built on one collector (a reconnect) all count into the
// registry's series.
func TestBackendCountersSharedOnOneCollector(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	col := obs.New(1)
	v.M.SetTelemetry(col)
	reg := col.Registry
	for i := 0; i < 2; i++ {
		be := NewBlkMQBackend(v, d0, v.M.Disk, 1, 16, 1)
		pushGrants(c, v, dU, be, 0, 0, uint64(10+i*10), 3)
		be.OnQueueEvent(0)(c)
		// Each backend keeps its own count; only the series sums them.
		if got := be.Stats.Requests.Load(); got != 3 {
			t.Errorf("backend %d: own Stats.Requests = %d, want 3", i, got)
		}
		nb := NewNetBackend(v, d0, devFunc(func(*hw.CPU, []byte) {}), 8)
		pfn := dU.Frames.Alloc()
		nb.RxRing.PushRequests(c, []NetRxBuffer{{ID: 1, Grant: dU.GrantAccess(c, d0.ID, pfn, false), Front: dU.ID}})
		nb.DeliverRx(c, []byte("x"))
	}
	for _, m := range []struct {
		name   string
		labels []obs.Label
		want   uint64
	}{
		{"backend_requests_total", []obs.Label{obs.L("dev", "blk")}, 6},
		{"backend_events_total", []obs.Label{obs.L("dev", "blk")}, 2},
		{"backend_packets_total", []obs.Label{obs.L("dev", "net"), obs.L("dir", "rx")}, 2},
	} {
		if got := reg.Counter("xen", m.name, m.labels...).Load(); got != m.want {
			t.Errorf("xen/%s%v = %d, want %d", m.name, m.labels, got, m.want)
		}
	}
}

// TestBlkMQWriteLeavesSourceFrameShared: a write request only copies
// out of the guest's frame, so a CoW-mapped source stays shared, stays
// out of the dirty log, and its shared bytes reach the disk.
func TestBlkMQWriteLeavesSourceFrameShared(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	dev := &memDisk{blocks: map[uint64][]byte{}}
	be := NewBlkMQBackend(v, d0, dev, 1, 16, 1)
	mem := v.M.Mem
	pfn := dU.Frames.Alloc()
	page := make([]byte, hw.PageSize)
	for i := range page {
		page[i] = 0xA5
	}
	if err := mem.MapShared(pfn, page, nil); err != nil {
		t.Fatal(err)
	}
	mem.EnableDirtyLog()
	defer mem.DisableDirtyLog()
	ref := dU.GrantAccess(c, be.Dom.ID, pfn, true)
	q := be.Queues[0]
	q.Ring.PushRequests(c, []BlkRequest{{ID: 1, Block: 5, Write: true, Grant: ref, Front: dU.ID}})
	be.PollQueue(c, q)
	resp := make([]BlkResponse, 16)
	if n := q.Ring.TakeResponses(c, resp); n != 1 || resp[0].Err != "" {
		t.Fatalf("write: n=%d err=%q", n, resp[0].Err)
	}
	if !mem.SharedAt(pfn) {
		t.Fatal("write request promoted its CoW source frame")
	}
	for _, p := range mem.CollectDirty() {
		if p == pfn {
			t.Fatal("write request marked its source frame dirty")
		}
	}
	if blk := dev.blocks[5]; len(blk) == 0 || blk[0] != 0xA5 || blk[hw.BlockSize-1] != 0xA5 {
		t.Fatal("disk did not receive the shared bytes")
	}
}

// grantFilled grants be's domain a fresh frame of dU whose bytes are
// all fill.
func grantFilled(c *hw.CPU, v *VMM, dU *Domain, be *BlkMQBackend, fill byte) GrantRef {
	pfn := dU.Frames.Alloc()
	fb := v.M.Mem.FrameBytes(pfn)
	for i := range fb {
		fb[i] = fill
	}
	return dU.GrantAccess(c, be.Dom.ID, pfn, true)
}

// serveOne pushes reqs on queue 0 as one burst, serves it, and fails
// the test unless every request completes without error.
func serveOne(t *testing.T, c *hw.CPU, be *BlkMQBackend, reqs ...BlkRequest) {
	t.Helper()
	q := be.Queues[0]
	if n, _ := q.Ring.PushRequests(c, reqs); n != len(reqs) {
		t.Fatalf("pushed %d of %d", n, len(reqs))
	}
	be.PollQueue(c, q)
	resp := make([]BlkResponse, q.Ring.Capacity())
	n := q.Ring.TakeResponses(c, resp)
	if n != len(reqs) {
		t.Fatalf("%d responses for %d requests", n, len(reqs))
	}
	for _, r := range resp[:n] {
		if r.Err != "" {
			t.Fatalf("request %d: %s", r.ID, r.Err)
		}
	}
}

// TestBlkMQWriteBehindKeepsOwnCopies: two write runs of one burst pass
// through the queue's staging buffer one after the other. The cache
// must keep its own copy of each, or the second run's bytes would
// overwrite the first's cached block.
func TestBlkMQWriteBehindKeepsOwnCopies(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	be := NewBlkMQBackend(v, d0, &memDisk{blocks: map[uint64][]byte{}}, 1, 16, 1)
	be.WriteBehind = true
	serveOne(t, c, be,
		BlkRequest{ID: 1, Block: 10, Write: true, Grant: grantFilled(c, v, dU, be, 0x11), Front: dU.ID},
		BlkRequest{ID: 2, Block: 20, Write: true, Grant: grantFilled(c, v, dU, be, 0x22), Front: dU.ID})
	if got := readBlock(t, c, v, dU, be, 3, 10); got != 0x11 {
		t.Fatalf("block 10 reads %#x, want its own 0x11", got)
	}
	if got := readBlock(t, c, v, dU, be, 4, 20); got != 0x22 {
		t.Fatalf("block 20 reads %#x, want its own 0x22", got)
	}
}

// TestBlkMQReadOfUnwrittenBlockIsZero: a device may leave a block it
// never stored untouched, so a read that follows a write on the same
// queue must not hand the frontend the write's bytes still in the
// staging buffer.
func TestBlkMQReadOfUnwrittenBlockIsZero(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	be := NewBlkMQBackend(v, d0, &memDisk{blocks: map[uint64][]byte{}}, 1, 16, 1)
	serveOne(t, c, be, BlkRequest{ID: 1, Block: 3, Write: true, Grant: grantFilled(c, v, dU, be, 0xEE), Front: dU.ID})
	dst := dU.Frames.Alloc()
	serveOne(t, c, be, BlkRequest{ID: 2, Block: 9, Grant: dU.GrantAccess(c, d0.ID, dst, false), Front: dU.ID})
	for i, b := range v.M.Mem.FrameBytesRO(dst) {
		if b != 0 {
			t.Fatalf("never-written block 9 reads %#x at byte %d, want zeros", b, i)
		}
	}
}

// nullDisk is a block device that stores nothing and reads zeros.
type nullDisk struct{}

func (nullDisk) Submit(c *hw.CPU, req hw.DiskRequest, buf []byte) error {
	clear(buf)
	return nil
}

// TestBlkMQServeAllocatesNoRunBuffer: serving single-block runs, reads
// and writes alike, allocates far less than a block per request, so no
// per-run transfer buffer is made.
func TestBlkMQServeAllocatesNoRunBuffer(t *testing.T) {
	const (
		burst    = 16
		requests = 1000
	)
	v, d0, dU, c := twoDomains(t)
	be := NewBlkMQBackend(v, d0, nullDisk{}, 1, burst, 1)
	q := be.Queues[0]
	refs := make([]GrantRef, burst)
	for i := range refs {
		refs[i] = grantFilled(c, v, dU, be, byte(i))
	}
	reqs := make([]BlkRequest, burst)
	resp := make([]BlkResponse, burst)
	serve := func(first int) {
		for i := range reqs {
			// Blocks two apart: every request is a run of its own.
			reqs[i] = BlkRequest{ID: uint64(first + i), Block: uint64(2 * (first + i)),
				Write: i%2 == 0, Grant: refs[i], Front: dU.ID}
		}
		q.Ring.PushRequests(c, reqs)
		be.PollQueue(c, q)
		if n := q.Ring.TakeResponses(c, resp); n != burst || resp[0].Err != "" {
			t.Fatalf("burst at %d: %d responses, first error %q", first, n, resp[0].Err)
		}
	}
	serve(0) // the staging buffer grows once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	served := 0
	for served < requests {
		serve(burst + served)
		served += burst
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(served); per >= hw.BlockSize/2 {
		t.Fatalf("serving allocated %d bytes per request, want < %d", per, hw.BlockSize/2)
	}
}
