package xen

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// The block backend's write-behind mode (X-U/M-U) and its merge and
// failure rules; the multi-queue protocol itself is in blkmq_test.go.

// writeBlock writes one block through queue 0 from a fresh granted
// frame whose first byte is fill.
func writeBlock(t *testing.T, c *hw.CPU, v *VMM, dU *Domain, be *BlkMQBackend, id, block uint64, fill byte) {
	t.Helper()
	q := be.Queues[0]
	src := dU.Frames.Alloc()
	v.M.Mem.FrameBytes(src)[0] = fill
	ref := dU.GrantAccess(c, be.Dom.ID, src, true)
	q.Ring.PushRequests(c, []BlkRequest{{ID: id, Block: block, Write: true, Grant: ref, Front: dU.ID}})
	be.PollQueue(c, q)
	resp := make([]BlkResponse, q.Ring.Capacity())
	if n := q.Ring.TakeResponses(c, resp); n != 1 || resp[0].Err != "" {
		t.Fatalf("write block %d: n=%d err=%q", block, n, resp[0].Err)
	}
}

// readBlock reads one block through queue 0 into a fresh granted frame
// and returns its first byte.
func readBlock(t *testing.T, c *hw.CPU, v *VMM, dU *Domain, be *BlkMQBackend, id, block uint64) byte {
	t.Helper()
	q := be.Queues[0]
	dst := dU.Frames.Alloc()
	ref := dU.GrantAccess(c, be.Dom.ID, dst, false)
	q.Ring.PushRequests(c, []BlkRequest{{ID: id, Block: block, Grant: ref, Front: dU.ID}})
	be.PollQueue(c, q)
	resp := make([]BlkResponse, q.Ring.Capacity())
	if n := q.Ring.TakeResponses(c, resp); n != 1 || resp[0].Err != "" {
		t.Fatalf("read block %d: n=%d err=%q", block, n, resp[0].Err)
	}
	return v.M.Mem.FrameBytesRO(dst)[0]
}

// TestBlkBackendWriteBehindAbsorbsAndFlushes: with WriteBehind on,
// writes are acknowledged from the driver domain's buffer cache without
// a disk request, reads see the cached data, and the write that brings
// the cache to its limit flushes it in merged runs.
func TestBlkBackendWriteBehindAbsorbsAndFlushes(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 1, 256, 1)
	be.WriteBehind = true
	q := be.Queues[0]
	resp := make([]BlkResponse, q.Ring.Capacity())

	// One frame per burst slot, reused across bursts: the cache keys on
	// block numbers, not frames.
	frames := make([]hw.PFN, q.Ring.Capacity())
	for i := range frames {
		frames[i] = dU.Frames.Alloc()
	}
	const base = 10
	write := func(from, to int) {
		t.Helper()
		for start := from; start < to; start += len(frames) {
			end := min(start+len(frames), to)
			reqs := make([]BlkRequest, 0, end-start)
			for b := start; b < end; b++ {
				pfn := frames[b-start]
				v.M.Mem.FrameBytes(pfn)[0] = byte(b)
				reqs = append(reqs, BlkRequest{
					ID: uint64(b), Block: base + uint64(b), Write: true,
					Grant: dU.GrantAccess(c, be.Dom.ID, pfn, true), Front: dU.ID,
				})
			}
			q.Ring.PushRequests(c, reqs)
			be.PollQueue(c, q)
			if n := q.Ring.TakeResponses(c, resp); n != len(reqs) {
				t.Fatalf("writes %d..%d: %d of %d acked", start, end, n, len(reqs))
			}
		}
	}

	disk := &v.M.Disk.Stats
	reqsBefore := disk.Requests
	write(0, writeBehindLimit-1)
	if disk.Requests != reqsBefore {
		t.Fatalf("write-behind went to disk early: %d requests", disk.Requests-reqsBefore)
	}
	// A read of an absorbed block must see the cached data.
	if got := readBlock(t, c, v, dU, be, 1<<20, base+7); got != 7 {
		t.Fatalf("read of a cached block = %#x, want 0x07", got)
	}
	reqsBefore, blocksBefore := disk.Requests, disk.BlocksIO
	// Reaching the limit flushes: one contiguous run, one merged request.
	write(writeBehindLimit-1, writeBehindLimit)
	if got := disk.Requests - reqsBefore; got != 1 {
		t.Fatalf("flush took %d disk requests, want 1 merged run", got)
	}
	if got := disk.BlocksIO - blocksBefore; got != writeBehindLimit {
		t.Fatalf("flush wrote %d blocks, want %d", got, writeBehindLimit)
	}
	// The flushed data now comes from the disk.
	if got := readBlock(t, c, v, dU, be, 1<<21, base+9); got != 9 {
		t.Fatalf("read after flush = %#x, want 0x09", got)
	}
}

func TestBlkBackendWriteReadRoundTrip(t *testing.T) {
	for _, wb := range []bool{false, true} {
		v, _, dU, c, be := mqEnv(t, 1, 64, 1)
		be.WriteBehind = wb
		writeBlock(t, c, v, dU, be, 1, 50, 0xAB)
		if got := readBlock(t, c, v, dU, be, 2, 50); got != 0xAB {
			t.Fatalf("write-behind %v: read back %#x, want 0xab", wb, got)
		}
	}
}

// TestBlkBackendMergesContiguous: a burst merges adjacent blocks only
// within one direction, so four writes followed by four reads of the
// next blocks cost two disk requests.
func TestBlkBackendMergesContiguous(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 1, 64, 1)
	q := be.Queues[0]
	reqs := make([]BlkRequest, 8)
	for i := range reqs {
		write := i < 4
		reqs[i] = BlkRequest{ID: uint64(i), Block: 100 + uint64(i), Write: write,
			Grant: dU.GrantAccess(c, be.Dom.ID, dU.Frames.Alloc(), write), Front: dU.ID}
	}
	q.Ring.PushRequests(c, reqs)
	before := v.M.Disk.Stats.Requests
	be.PollQueue(c, q)
	if got := v.M.Disk.Stats.Requests - before; got != 2 {
		t.Fatalf("4 writes + 4 reads took %d disk requests, want 2", got)
	}
	if be.Stats.Merges.Load() != 6 {
		t.Fatalf("merges = %d, want 6", be.Stats.Merges.Load())
	}
}

// TestBlkBackendBadGrantFails: a write whose grant does not map fails
// its run in write-behind mode too, and nothing reaches the cache.
func TestBlkBackendBadGrantFails(t *testing.T) {
	v, _, dU, c, be := mqEnv(t, 1, 16, 1)
	be.WriteBehind = true
	q := be.Queues[0]
	q.Ring.PushRequests(c, []BlkRequest{{ID: 5, Block: 1, Write: true, Grant: 99, Front: dU.ID}})
	be.PollQueue(c, q)
	resp := make([]BlkResponse, 16)
	if n := q.Ring.TakeResponses(c, resp); n != 1 || resp[0].Err == "" {
		t.Fatalf("bad grant not failed: n=%d %+v", n, resp[0])
	}
	if got := readBlock(t, c, v, dU, be, 6, 1); got != 0 {
		t.Fatalf("failed write reached the cache: read %#x", got)
	}
}

// memDisk is a block device safe for concurrent submits; it charges
// nothing, so the test below exercises only the backend's own locking.
type memDisk struct {
	mu     sync.Mutex
	blocks map[uint64][]byte
}

func (d *memDisk) Submit(c *hw.CPU, req hw.DiskRequest, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < req.Blocks; i++ {
		b := buf[i*hw.BlockSize : (i+1)*hw.BlockSize]
		if req.Write {
			d.blocks[req.Block+uint64(i)] = append([]byte(nil), b...)
		} else if src, ok := d.blocks[req.Block+uint64(i)]; ok {
			copy(b, src)
		}
	}
	return nil
}

// TestBlkBackendWriteBehindConcurrentQueues: two CPUs drive their own
// queues of one write-behind backend and keep draining each other's, so
// drains of one queue race, absorbs race a flush, and reads race both.
// Every write is acknowledged once and every read returns the newest
// data. Meant to run under -race; the deterministic interleavings are
// in blkmq_test.go.
func TestBlkBackendWriteBehindConcurrentQueues(t *testing.T) {
	const (
		burst  = 64
		rounds = 40
		spread = 20 // distinct block sets per CPU; rounds rewrite them
	)
	h, err := BootHost(hw.Config{MemBytes: 64 << 20, NumCPUs: 2}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, v, drv := h.M, h.V, h.Dom0
	be := NewBlkMQBackend(v, drv, &memDisk{blocks: map[uint64][]byte{}}, 2, burst, 1)
	be.WriteBehind = true

	// Grants are set up before the CPUs start: the grant table itself is
	// not what this test exercises.
	type work struct {
		c      *hw.CPU
		q      *BlkMQQueue
		frames []hw.PFN
		writes [][]BlkRequest
		reads  []BlkRequest
		dst    []hw.PFN
	}
	ws := make([]*work, 2)
	for i := range ws {
		dU, err := v.CreateDomain("domU", 256, false)
		if err != nil {
			t.Fatal(err)
		}
		w := &work{c: m.CPUs[i], q: be.Queues[i]}
		for j := 0; j < burst; j++ {
			w.frames = append(w.frames, dU.Frames.Alloc())
		}
		for r := 0; r < rounds; r++ {
			first := uint64(i*100_000 + (r%spread)*burst)
			var reqs []BlkRequest
			for j, pfn := range w.frames {
				reqs = append(reqs, BlkRequest{ID: uint64(j), Block: first + uint64(j), Write: true,
					Grant: dU.GrantAccess(w.c, drv.ID, pfn, true), Front: dU.ID})
			}
			w.writes = append(w.writes, reqs)
			dst := dU.Frames.Alloc()
			w.dst = append(w.dst, dst)
			w.reads = append(w.reads, BlkRequest{ID: burst, Block: first + uint64(r%burst),
				Grant: dU.GrantAccess(w.c, drv.ID, dst, false), Front: dU.ID})
		}
		ws[i] = w
	}

	var wg sync.WaitGroup
	for i, w := range ws {
		other := ws[1-i].q
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := make([]BlkResponse, burst)
			collect := func(n int) []BlkResponse {
				var got []BlkResponse
				for len(got) < n {
					be.PollQueue(w.c, w.q)
					be.PollQueue(w.c, other)
					k := w.q.Ring.TakeResponses(w.c, resp)
					got = append(got, resp[:k]...)
					runtime.Gosched()
				}
				return got
			}
			for r := 0; r < rounds; r++ {
				for _, pfn := range w.frames {
					v.M.Mem.FrameBytes(pfn)[0] = byte(r + 1)
				}
				// Two pushes, the second while a drainer may still be
				// serving the first.
				w.q.Ring.PushRequests(w.c, w.writes[r][:burst/2])
				be.PollQueue(w.c, w.q)
				w.q.Ring.PushRequests(w.c, w.writes[r][burst/2:])
				for _, got := range collect(burst) {
					if got.Err != "" {
						t.Errorf("cpu %d round %d: write %d: %s", w.c.ID, r, got.ID, got.Err)
						return
					}
				}
				w.q.Ring.PushRequests(w.c, w.reads[r:r+1])
				if got := collect(1); got[0].Err != "" || got[0].ID != burst {
					t.Errorf("cpu %d round %d: read response %+v", w.c.ID, r, got[0])
					return
				}
				if b := v.M.Mem.FrameBytesRO(w.dst[r])[0]; b != byte(r+1) {
					t.Errorf("cpu %d round %d: read %#x, want the newest write %#x", w.c.ID, r, b, byte(r+1))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := be.Stats.Requests.Load(), uint64(2*rounds*(burst+1)); got != want {
		t.Fatalf("backend served %d requests, want %d", got, want)
	}
}

func TestNetBackendTxAndRx(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	var sent [][]byte
	nb := NewNetBackend(v, d0,
		devFunc(func(cc *hw.CPU, data []byte) { sent = append(sent, data) }), 32)

	// Transmit path: granted frame -> device.
	pfn := dU.Frames.Alloc()
	copy(v.M.Mem.FrameBytes(pfn), []byte("frame-one"))
	ref := dU.GrantAccess(c, d0.ID, pfn, true)
	if _, notify := nb.TxRing.PushRequests(c, []NetTxRequest{
		{ID: 1, Grant: ref, Front: dU.ID, Len: 9},
	}); !notify {
		t.Fatal("first tx push must ring the doorbell")
	}
	nb.OnEvent(c)
	if len(sent) != 1 || string(sent[0]) != "frame-one" {
		t.Fatalf("tx = %q", sent)
	}
	txDone := make([]NetTxResponse, 4)
	if n := nb.TxRing.TakeResponses(c, txDone); n != 1 || txDone[0].Err != "" {
		t.Fatalf("tx response: n=%d %+v", n, txDone[0])
	}

	// Receive path: inbound packet -> posted buffer.
	buf := dU.Frames.Alloc()
	bref := dU.GrantAccess(c, d0.ID, buf, false)
	nb.RxRing.PushRequests(c, []NetRxBuffer{{ID: 2, Grant: bref, Front: dU.ID}})
	if !nb.DeliverRx(c, []byte("inbound!")) {
		t.Fatal("rx delivery failed")
	}
	rxDone := make([]NetRxDone, 4)
	if n := nb.RxRing.TakeResponses(c, rxDone); n != 1 || rxDone[0].Err != "" || rxDone[0].Len != 8 {
		t.Fatalf("rx done: n=%d %+v", n, rxDone[0])
	}
	if string(v.M.Mem.FrameBytesRO(buf)[:8]) != "inbound!" {
		t.Fatal("rx data wrong")
	}

	// No posted buffer: drop.
	if nb.DeliverRx(c, []byte("lost")) {
		t.Fatal("delivered without a buffer")
	}
	if nb.Stats.RxDropped.Load() != 1 {
		t.Fatalf("drops = %d", nb.Stats.RxDropped.Load())
	}
	if nb.Stats.TxPackets.Load() != 1 || nb.Stats.RxPackets.Load() != 1 {
		t.Fatalf("packets tx=%d rx=%d", nb.Stats.TxPackets.Load(), nb.Stats.RxPackets.Load())
	}
}

// devFunc adapts a function to PacketDevice.
type devFunc func(c *hw.CPU, data []byte)

func (f devFunc) Transmit(c *hw.CPU, data []byte) { f(c, data) }

func TestMiscHypercalls(t *testing.T) {
	v, d, c := testVMM(t)
	v.HypSchedYield(c, d)
	v.HypSetTimer(c, d, c.Now()+500)
	if _, armed := c.LAPIC.NextTimerDeadline(); !armed {
		t.Fatal("HypSetTimer did not arm")
	}
	v.HypTLBFlush(c, d)
	v.HypInvlpg(c, d, 0x1000)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.MirrorPinRoot(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.MirrorUnpinRoot(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.DestroyDomain(99); err == nil {
		t.Fatal("destroyed nonexistent domain")
	}
}

// TestNetBackendPacketCountersAdopted: the packet counts are adopted
// into the registry's xen/backend_packets_total{dev=net,dir=...} series.
func TestNetBackendPacketCountersAdopted(t *testing.T) {
	v, d0, _, _ := twoDomains(t)
	col := obs.New(1)
	v.M.SetTelemetry(col)
	nb := NewNetBackend(v, d0, devFunc(func(*hw.CPU, []byte) {}), 8)
	nb.Stats.TxPackets.Add(2)
	nb.Stats.RxPackets.Add(5)
	for dir, want := range map[string]uint64{"tx": 2, "rx": 5} {
		if got := col.Registry.Counter("xen", "backend_packets_total",
			obs.L("dev", "net"), obs.L("dir", dir)).Load(); got != want {
			t.Errorf("dir=%s: series = %d, want %d", dir, got, want)
		}
	}
}
