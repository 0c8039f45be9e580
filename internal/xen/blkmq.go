package xen

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// BlkMQQueue is one hardware queue of a multi-queue block device: its
// own IORing with independent producer/consumer indices, its own
// doorbell pair, and reusable burst buffers so the serving loop
// allocates nothing at steady state: the drained requests, their
// responses, each run's grant refs, mapped entries and frames, the
// staging buffer every run's transfer goes through, and a read run's
// write-behind copies. Only a write absorbed by the write-behind cache
// allocates, because the cache keeps its own copy.
type BlkMQQueue struct {
	ID   int
	Ring *IORing[BlkRequest, BlkResponse]

	// RespKick rings the frontend's completion doorbell (nil = the
	// frontend polls). The backend calls it only when the event-index
	// protocol says the frontend asked to be woken.
	RespKick func(c *hw.CPU)

	reqBuf   []BlkRequest
	respBuf  []BlkResponse
	refBuf   []GrantRef
	entryBuf []*grantEntry
	pfnBuf   []hw.PFN
	// stage holds one run's blocks between the frontend's frames and
	// the device. It grows to the longest run the queue has served and
	// never shrinks; runs are usually one block, so it is not sized
	// for a whole ring up front.
	stage []byte
	// cached is a read run's write-behind copies, one per block.
	cached [][]byte

	// stalled wedges the queue's consumer (chaos fault injection).
	stalled atomic.Bool
	// serving admits one drainer at a time: doorbell upcalls for the
	// same queue can land on two CPUs at once, and the burst buffers
	// above are per queue.
	serving atomic.Bool

	// Progress snapshot for Audit: consumer index and whether the
	// previous audit saw pending work.
	prevCons   uint32
	auditArmed bool
}

// BlkMQBackend is the driver-domain half of the production block
// datapath: per-vCPU queues drained in bursts, one GrantMapBatch per
// contiguous run, merged submits to the native device, and completion
// doorbells coalesced by the response event index. It serves either
// from doorbell upcalls (OnQueueEvent) or from credit-scheduler slices
// (Serve registered as the driver domain's BackgroundWork) — the poll
// path is also what makes coalescing thresholds > 1 live.
type BlkMQBackend struct {
	V   *VMM
	Dom *Domain // driver domain
	Dev BlockDevice

	Queues []*BlkMQQueue

	// ReqThreshold is the request-doorbell re-arm distance: after a
	// drain the backend asks to be kicked only once this many requests
	// queue up. 1 = classic Xen wake-on-first; depth/4 is the datapath
	// default set by callers.
	ReqThreshold int

	// WriteBehind enables the driver domain's buffer cache for frontend
	// writes: data is copied into the cache and acknowledged before it
	// reaches the disk, and flushed in merged runs once the cache holds
	// writeBehindLimit blocks; reads overlay the cache. This is the
	// caching in the split device mode that lets dbench in a domainU
	// slightly beat domain0 and even native Linux, "though at the cost
	// of possible inconsistency during crash" (§7.3).
	WriteBehind bool

	wbMu    sync.Mutex
	wbCache map[uint64][]byte
	// flushing admits one flusher at a time: two flushes of snapshots
	// taken at different moments could write a block's older copy after
	// its newer one. It also makes flushBuf, the staging buffer of the
	// flush's merged runs, the one flusher's own.
	flushing atomic.Bool
	flushBuf []byte

	Stats BlkMQStats
}

// writeBehindLimit is the dirty-block count that triggers a flush.
const writeBehindLimit = 2048

// BlkMQStats counts backend activity across all queues (atomic: queue
// events may be dispatched on any CPU). Requests and Events are adopted
// into the telemetry registry at construction, where each series sums
// them over every block backend built on the collector.
type BlkMQStats struct {
	Requests *obs.Counter
	Events   *obs.Counter
	Bursts   atomic.Uint64
	Merges   atomic.Uint64
}

// NewBlkMQBackend builds queues rings of depth slots each, serving dev
// from dom. Frontend wiring (ports, kick closures) is the caller's.
func NewBlkMQBackend(v *VMM, dom *Domain, dev BlockDevice, queues, depth, reqThreshold int) *BlkMQBackend {
	if queues < 1 {
		queues = 1
	}
	if reqThreshold < 1 {
		reqThreshold = 1
	}
	be := &BlkMQBackend{V: v, Dom: dom, Dev: dev, ReqThreshold: reqThreshold,
		Stats: BlkMQStats{Requests: obs.NewCounter(), Events: obs.NewCounter()}}
	col := v.M.Telemetry()
	if col != nil {
		col.Registry.RegisterCounter(be.Stats.Requests, "xen", "backend_requests_total", obs.L("dev", "blk"))
		col.Registry.RegisterCounter(be.Stats.Events, "xen", "backend_events_total", obs.L("dev", "blk"))
	}
	for i := 0; i < queues; i++ {
		q := &BlkMQQueue{
			ID:   i,
			Ring: NewIORing[BlkRequest, BlkResponse](depth, v.M.Costs),
		}
		q.reqBuf = make([]BlkRequest, q.Ring.Capacity())
		q.respBuf = make([]BlkResponse, 0, q.Ring.Capacity())
		q.refBuf = make([]GrantRef, 0, q.Ring.Capacity())
		q.entryBuf = make([]*grantEntry, 0, q.Ring.Capacity())
		q.pfnBuf = make([]hw.PFN, 0, q.Ring.Capacity())
		be.Queues = append(be.Queues, q)
		if col != nil {
			// Both ends' doorbell decisions on this queue: the
			// frontend's request pushes and the backend's completions.
			st := &q.Ring.Stats
			col.Registry.RegisterCounter(st.ReqKicks, "xen", "ring_doorbells_total")
			col.Registry.RegisterCounter(st.RespKicks, "xen", "ring_doorbells_total")
			col.Registry.RegisterCounter(st.ReqSuppressed, "xen", "ring_doorbells_suppressed_total")
			col.Registry.RegisterCounter(st.RespSuppressed, "xen", "ring_doorbells_suppressed_total")
		}
	}
	return be
}

// OnQueueEvent returns the doorbell handler for queue qi, suitable for
// SetPortHandler on the driver domain's per-queue event port.
func (be *BlkMQBackend) OnQueueEvent(qi int) func(c *hw.CPU) {
	q := be.Queues[qi]
	return func(c *hw.CPU) {
		be.Stats.Events.Inc()
		be.PollQueue(c, q)
	}
}

// Serve drains every queue until nothing is pending or the cycle budget
// is spent. Registered as the driver domain's BackgroundWork, it is the
// backend loop scheduled as a real domain: the credit scheduler hands
// it slices, and suppressed doorbells are picked up here.
func (be *BlkMQBackend) Serve(c *hw.CPU, budget hw.Cycles) {
	deadline := c.Now() + budget
	for {
		n := 0
		for _, q := range be.Queues {
			n += be.PollQueue(c, q)
		}
		if n == 0 || c.Now() >= deadline {
			return
		}
	}
}

// PollQueue drains one queue to empty: take a burst, serve it, push the
// completions, and re-arm the request doorbell with the coalescing
// threshold. The FINAL CHECK loop guarantees no request pushed against
// the old wake mark is stranded. Returns requests served; 0 also when
// another CPU is already draining the queue. That drainer checks the
// ring again after letting the queue go, so a doorbell that found the
// queue held strands nothing either.
func (be *BlkMQBackend) PollQueue(c *hw.CPU, q *BlkMQQueue) int {
	h := be.V.tel()
	total := 0
	for !q.stalled.Load() && q.serving.CompareAndSwap(false, true) {
		for {
			if h != nil {
				h.ringDepth.Observe(uint64(q.Ring.RequestsPending()))
			}
			n := q.Ring.TakeRequests(c, q.reqBuf)
			if n == 0 {
				if !q.Ring.FinishRequestConsume(c, be.ReqThreshold) {
					break
				}
				continue
			}
			be.serveBurst(c, q, q.reqBuf[:n])
			total += n
		}
		q.serving.Store(false)
		if q.Ring.RequestsPending() == 0 {
			break
		}
	}
	return total
}

// serveBurst sorts one drained burst, maps each contiguous run's grants
// in a single batched grant_table_op, issues merged transfers, and
// pushes all completions with one doorbell decision.
func (be *BlkMQBackend) serveBurst(c *hw.CPU, q *BlkMQQueue, reqs []BlkRequest) {
	var sp obs.SpanRef
	h := be.V.tel()
	if h != nil {
		h.ringBurst.Observe(uint64(len(reqs)))
		sp = obs.Begin(h.col, c.ID, c.Now(), "xen/blkmq-burst")
		defer sp.EndArg(c.Now(), uint64(len(reqs)))
	}
	be.Stats.Requests.Add(uint64(len(reqs)))
	be.Stats.Bursts.Add(1)

	slices.SortFunc(reqs, func(a, b BlkRequest) int { return cmp.Compare(a.Block, b.Block) })
	q.respBuf = q.respBuf[:0]
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) &&
			reqs[end].Write == reqs[start].Write &&
			reqs[end].Front == reqs[start].Front &&
			reqs[end].Block == reqs[end-1].Block+1 {
			end++
		}
		run := reqs[start:end]
		if len(run) > 1 {
			be.Stats.Merges.Add(uint64(len(run) - 1))
		}
		be.serveRun(c, q, run)
		start = end
	}
	notify := q.Ring.PushResponses(c, q.respBuf)
	if notify && q.RespKick != nil {
		q.RespKick(c)
	}
}

// serveRun maps, transfers, and completes one contiguous run. All
// responses land in q.respBuf; the caller pushes them. The transfer
// goes through q.stage: a read run's slice is cleared before the device
// fills it (see BlockDevice), and a write run's is overwritten whole by
// the frame copies.
func (be *BlkMQBackend) serveRun(c *hw.CPU, q *BlkMQQueue, run []BlkRequest) {
	fail := func(msg string) {
		for _, r := range run {
			q.respBuf = append(q.respBuf, BlkResponse{ID: r.ID, Err: msg})
		}
	}
	q.refBuf = q.refBuf[:0]
	for _, r := range run {
		q.refBuf = append(q.refBuf, r.Grant)
	}
	var err error
	// A read run writes the frontend's frames: it maps them writable.
	q.entryBuf, q.pfnBuf, err = be.V.grantMapBatch(c, be.Dom, run[0].Front, q.refBuf, !run[0].Write,
		q.entryBuf, q.pfnBuf)
	if err != nil {
		fail(err.Error())
		return
	}
	defer be.V.grantUnmapBatch(c, q.entryBuf, q.pfnBuf, !run[0].Write)
	pfns := q.pfnBuf
	buf := stageBlocks(&q.stage, len(run))
	if run[0].Write {
		for i, pfn := range pfns {
			c.Charge(be.V.M.Costs.PageCopy)
			copy(buf[i*hw.BlockSize:(i+1)*hw.BlockSize], be.V.M.Mem.FrameBytesRO(pfn))
		}
	} else {
		clear(buf)
	}
	// A read takes the run's cached copies before its disk transfer: a
	// flush may write a block and drop it from the cache meanwhile, after
	// the transfer read the old contents. Cached copies never change.
	var cached [][]byte
	if !run[0].Write && be.WriteBehind {
		cached = slices.Grow(q.cached[:0], len(run))[:len(run)]
		q.cached = cached
		defer clear(cached) // do not pin blocks the cache has dropped
		be.wbMu.Lock()
		for i, r := range run {
			cached[i] = be.wbCache[r.Block]
		}
		be.wbMu.Unlock()
	}
	if run[0].Write && be.WriteBehind {
		be.absorb(c, run, buf)
	} else if err := be.Dev.Submit(c, hw.DiskRequest{
		Block:  run[0].Block,
		Write:  run[0].Write,
		Blocks: len(run),
		Merged: len(run),
	}, buf); err != nil {
		fail(err.Error())
		return
	}
	if !run[0].Write {
		// Reads see cached writes that had not reached the disk.
		for i, blk := range cached {
			if blk != nil {
				copy(buf[i*hw.BlockSize:(i+1)*hw.BlockSize], blk)
			}
		}
		for i, pfn := range pfns {
			c.Charge(be.V.M.Costs.PageCopy)
			copy(be.V.M.Mem.FrameBytes(pfn), buf[i*hw.BlockSize:(i+1)*hw.BlockSize])
		}
	}
	for _, r := range run {
		q.respBuf = append(q.respBuf, BlkResponse{ID: r.ID})
	}
}

// stageBlocks returns the first blocks*BlockSize bytes of a staging
// buffer, growing it first if blocks is the most it has held. The bytes
// are whatever the previous user left.
func stageBlocks(stage *[]byte, blocks int) []byte {
	n := blocks * hw.BlockSize
	*stage = slices.Grow((*stage)[:0], n)[:n]
	return *stage
}

// absorb stores a write run in the buffer cache (the caller acks it)
// and flushes once the cache reaches writeBehindLimit blocks. buf is
// the queue's staging buffer, which the next run overwrites, so the
// cache takes its own copy: readers rely on cached copies never
// changing.
func (be *BlkMQBackend) absorb(c *hw.CPU, run []BlkRequest, buf []byte) {
	own := slices.Clone(buf)
	be.wbMu.Lock()
	if be.wbCache == nil {
		be.wbCache = make(map[uint64][]byte)
	}
	for i, r := range run {
		be.wbCache[r.Block] = own[i*hw.BlockSize : (i+1)*hw.BlockSize]
	}
	flush := len(be.wbCache) >= writeBehindLimit
	be.wbMu.Unlock()
	if flush {
		be.flushWriteBehind(c)
	}
}

// flushWriteBehind writes the cache to disk in merged runs of
// contiguous blocks. The cache lock is never held across a disk submit
// (a CPU blocked on it would stall the virtual-time scheduler), so blocks stay
// readable from the cache until written and are dropped only if no
// newer write replaced them meanwhile. A flush that finds another in
// progress leaves the cache to it; the next absorb past the limit
// flushes again.
func (be *BlkMQBackend) flushWriteBehind(c *hw.CPU) {
	if !be.flushing.CompareAndSwap(false, true) {
		return
	}
	defer be.flushing.Store(false)
	type dirty struct {
		blk  uint64
		data []byte
	}
	be.wbMu.Lock()
	blocks := make([]dirty, 0, len(be.wbCache))
	for blk, data := range be.wbCache {
		blocks = append(blocks, dirty{blk, data})
	}
	be.wbMu.Unlock()
	slices.SortFunc(blocks, func(a, b dirty) int { return cmp.Compare(a.blk, b.blk) })
	for start := 0; start < len(blocks); {
		end := start + 1
		for end < len(blocks) && blocks[end].blk == blocks[end-1].blk+1 {
			end++
		}
		run := blocks[start:end]
		buf := stageBlocks(&be.flushBuf, len(run))
		for i, d := range run {
			copy(buf[i*hw.BlockSize:(i+1)*hw.BlockSize], d.data)
		}
		if err := be.Dev.Submit(c, hw.DiskRequest{
			Block: run[0].blk, Write: true, Blocks: len(run), Merged: len(run),
		}, buf); err == nil {
			be.wbMu.Lock()
			for _, d := range run {
				if cur, ok := be.wbCache[d.blk]; ok && &cur[0] == &d.data[0] {
					delete(be.wbCache, d.blk)
				}
			}
			be.wbMu.Unlock()
		}
		start = end
	}
}

// Pending sums queued, unserved requests across all queues.
func (be *BlkMQBackend) Pending() int {
	n := 0
	for _, q := range be.Queues {
		n += q.Ring.RequestsPending()
	}
	return n
}

// StallQueue wedges (or unwedges) one queue's consumer — chaos fault
// injection for the ring-stall class.
func (be *BlkMQBackend) StallQueue(qi int, on bool) {
	be.Queues[qi].stalled.Store(on)
}

// Audit is the progress detector behind the chaos ring-stall fault: a
// queue with pending requests whose consumer index has not moved since
// the previous audit is stalled. Returns "" when every queue is making
// progress; call it at least twice with service attempts in between.
func (be *BlkMQBackend) Audit() string {
	for _, q := range be.Queues {
		pending := q.Ring.RequestsPending()
		cons := q.Ring.ReqConsumerIndex()
		if pending > 0 && q.auditArmed && cons == q.prevCons {
			return fmt.Sprintf("ring stall: queue %d has %d requests pending, consumer idle at index %d",
				q.ID, pending, cons)
		}
		q.prevCons = cons
		q.auditArmed = pending > 0
	}
	return ""
}
