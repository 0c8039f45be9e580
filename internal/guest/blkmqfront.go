package guest

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/xen"
)

// MQIORequest is one asynchronous block transfer submitted to the
// multi-queue frontend. The caller owns ID allocation (it is how the
// submitter matches completions back to requests).
type MQIORequest struct {
	ID    uint64
	Block uint64
	Write bool
	PFN   hw.PFN
}

// MQFrontQueue is the frontend half of one hardware queue.
type MQFrontQueue struct {
	Ring     *xen.IORing[xen.BlkRequest, xen.BlkResponse]
	KickPort xen.Port // bound to the backend's per-queue event port

	outstanding int
	grants      map[uint64]xen.GrantRef
	pushBuf     []xen.BlkRequest
	respBuf     []xen.BlkResponse
	kickPending bool

	// Synchronous Submit state: its own request IDs and staging buffer.
	nextID uint64
	subBuf []MQIORequest
}

// MQFrontStats counts frontend-side datapath activity; slot and
// doorbell counts live in each queue's xen.IORingStats.
type MQFrontStats struct {
	ForcedKicks atomic.Uint64 // unconditional drain-path doorbells
}

// MQBlockFrontend is blkfront, the multi-queue block frontend: per-vCPU
// queues submitted in bursts, doorbells decided by the event-index
// protocol. It serves two callers. An asynchronous submitter drives
// SubmitAsync, Kick (which folds every queue's doorbell into one
// multicall) and Poll itself, so a mode switch can find (and drain)
// in-flight requests. As the kernel's BlockDriver, Submit runs the
// same calls synchronously on the calling CPU's queue.
type MQBlockFrontend struct {
	V       *xen.VMM
	D       *xen.Domain // this (frontend) domain
	Backend xen.DomID

	// RespThreshold is the completion-doorbell re-arm distance
	// advertised to the backend: ask to be woken only once this many
	// responses queue. The submitter's poll loop covers the trickle.
	RespThreshold int

	Queues []*MQFrontQueue

	mc    xen.Multicall
	Stats MQFrontStats
}

// NewMQBlockFrontend builds an empty frontend; Connect wires its queues.
func NewMQBlockFrontend(v *xen.VMM, d *xen.Domain, backend xen.DomID, respThreshold int) *MQBlockFrontend {
	if respThreshold < 1 {
		respThreshold = 1
	}
	return &MQBlockFrontend{V: v, D: d, Backend: backend, RespThreshold: respThreshold}
}

// Connect attaches one frontend queue to each of be's queues, sharing
// its ring, and binds a request doorbell (frontend -> backend, served
// by the backend's queue handler) and a completion doorbell (backend ->
// frontend; the frontend polls, so its handler is a no-op and what
// matters is the coalesced send cost and the pending mark).
func (f *MQBlockFrontend) Connect(c *hw.CPU, be *xen.BlkMQBackend) error {
	v, drv := f.V, be.Dom
	for qi, q := range be.Queues {
		portFE, err := v.EvtchnConnect(c, f.D, drv, be.OnQueueEvent(qi))
		if err != nil {
			return fmt.Errorf("guest: blkmq queue %d doorbell: %w", qi, err)
		}
		rPortBE, err := v.EvtchnConnect(c, drv, f.D, func(*hw.CPU) {})
		if err != nil {
			return fmt.Errorf("guest: blkmq queue %d completion: %w", qi, err)
		}
		q.RespKick = func(cc *hw.CPU) {
			if err := v.EvtchnSend(cc, drv, rPortBE); err != nil {
				panic(fmt.Sprintf("guest: blkmq resp kick: %v", err))
			}
		}
		n := q.Ring.Capacity()
		f.Queues = append(f.Queues, &MQFrontQueue{
			Ring:     q.Ring,
			KickPort: portFE,
			grants:   make(map[uint64]xen.GrantRef, n),
			pushBuf:  make([]xen.BlkRequest, 0, n),
			respBuf:  make([]xen.BlkResponse, n),
		})
	}
	return nil
}

// SubmitAsync pushes as many of reqs as queue qi has room for (the
// outstanding count may never exceed ring capacity — a response needs
// the slot its request freed) and returns how many were accepted.
// Grants are taken per request; the doorbell decision is one per push
// and is only recorded — Kick sends the batched notifications.
func (f *MQBlockFrontend) SubmitAsync(c *hw.CPU, qi int, reqs []MQIORequest) int {
	q := f.Queues[qi]
	room := q.Ring.Capacity() - q.outstanding
	if room <= 0 || len(reqs) == 0 {
		return 0
	}
	if len(reqs) > room {
		reqs = reqs[:room]
	}
	q.pushBuf = q.pushBuf[:0]
	for _, r := range reqs {
		ref := f.D.GrantAccess(c, f.Backend, r.PFN, r.Write)
		q.grants[r.ID] = ref
		q.pushBuf = append(q.pushBuf, xen.BlkRequest{
			ID: r.ID, Block: r.Block, Write: r.Write, Grant: ref, Front: f.D.ID,
		})
	}
	n, notify := q.Ring.PushRequests(c, q.pushBuf)
	if n != len(q.pushBuf) {
		// Capacity was checked against outstanding; a short push means
		// the accounting is broken, not that the ring is busy.
		panic(fmt.Sprintf("guest: blkmq queue %d: pushed %d of %d with %d outstanding",
			qi, n, len(q.pushBuf), q.outstanding))
	}
	q.outstanding += n
	if notify {
		q.kickPending = true
	}
	return n
}

// Kick delivers every pending queue doorbell in one multicall — one
// VMM entry no matter how many queues a submission sweep touched.
func (f *MQBlockFrontend) Kick(c *hw.CPU) {
	f.mc.Reset()
	for _, q := range f.Queues {
		if q.kickPending {
			q.kickPending = false
			f.mc.AddEvtchnSend(q.KickPort)
		}
	}
	if f.mc.Len() == 0 {
		return
	}
	if err := f.V.HypMulticall(c, f.D, &f.mc); err != nil {
		panic(fmt.Sprintf("guest: blkmq kick: %v", err))
	}
}

// doorbell sends queue qi's request doorbell on its own.
func (f *MQBlockFrontend) doorbell(c *hw.CPU, qi int) {
	if err := f.V.EvtchnSend(c, f.D, f.Queues[qi].KickPort); err != nil {
		panic(fmt.Sprintf("guest: blkmq doorbell: %v", err))
	}
}

// KickStalled rings, unconditionally, the doorbell of every queue with
// requests the backend has not taken — the drain path's flush of a
// sub-threshold tail the coalescing protocol would otherwise leave for
// the backend's next scheduler slice. Reports whether any was kicked.
func (f *MQBlockFrontend) KickStalled(c *hw.CPU) bool {
	kicked := false
	for qi, q := range f.Queues {
		if q.Ring.RequestsPending() > 0 {
			f.Stats.ForcedKicks.Add(1)
			f.doorbell(c, qi)
			kicked = true
		}
	}
	return kicked
}

// Poll collects completions from queue qi, ending each request's grant
// and invoking fn per response. The FINAL CHECK loop re-arms the
// completion doorbell and keeps draining while responses race in.
// Returns the number collected.
func (f *MQBlockFrontend) Poll(c *hw.CPU, qi int, fn func(xen.BlkResponse)) int {
	q := f.Queues[qi]
	total := 0
	for {
		n := q.Ring.TakeResponses(c, q.respBuf)
		if n == 0 {
			if !q.Ring.FinishResponseConsume(c, f.RespThreshold) {
				return total
			}
			continue
		}
		for _, resp := range q.respBuf[:n] {
			if ref, ok := q.grants[resp.ID]; ok {
				if err := f.D.GrantEnd(c, ref); err != nil {
					panic(fmt.Sprintf("guest: blkmq: %v", err))
				}
				delete(q.grants, resp.ID)
			}
			q.outstanding--
			if fn != nil {
				fn(resp)
			}
		}
		total += n
	}
}

// PollAll polls every queue and returns the number of completions.
func (f *MQBlockFrontend) PollAll(c *hw.CPU, fn func(xen.BlkResponse)) int {
	n := 0
	for qi := range f.Queues {
		n += f.Poll(c, qi, fn)
	}
	return n
}

// Submit performs reqs synchronously on queue c.ID (one queue per
// vCPU), blocking until every block completes: push what fits, ring
// the queue's own doorbell when the push crossed the backend's wake
// mark, and collect completions. A full ring just takes another lap.
// It never touches the frontend-wide multicall batch, which CPUs
// submitting concurrently would share.
func (f *MQBlockFrontend) Submit(c *hw.CPU, reqs []BlockReq) {
	qi := c.ID
	q := f.Queues[qi]
	for len(reqs) > 0 || q.outstanding > 0 {
		q.subBuf = q.subBuf[:0]
		for _, r := range reqs[:min(len(reqs), q.Ring.Capacity()-q.outstanding)] {
			q.subBuf = append(q.subBuf, MQIORequest{ID: q.nextID, Block: r.Block, Write: r.Write, PFN: r.PFN})
			q.nextID++
		}
		n := f.SubmitAsync(c, qi, q.subBuf)
		reqs = reqs[n:]
		if q.kickPending {
			q.kickPending = false
			f.doorbell(c, qi)
		}
		if f.Poll(c, qi, mustSucceed) > 0 || n > 0 {
			continue
		}
		// No progress: another CPU's upcall is draining this queue and
		// serves what is pushed (the backend re-checks the ring after
		// every drain), so this vCPU idles until completions arrive.
		c.IdleUntil(func() bool { return q.Ring.ResponsesPending() > 0 })
	}
}

// mustSucceed fails a synchronous Submit on a backend error: the
// kernel's block layer has no path to hand one back.
func mustSucceed(resp xen.BlkResponse) {
	if resp.Err != "" {
		panic(fmt.Sprintf("guest: blkfront: backend error: %s", resp.Err))
	}
}

// Outstanding is the number of submitted, uncompleted requests across
// all queues.
func (f *MQBlockFrontend) Outstanding() int {
	n := 0
	for _, q := range f.Queues {
		n += q.outstanding
	}
	return n
}

// Drain force-completes every in-flight request: force-kick queues
// with queued requests, let pump run the backend, and poll until the
// outstanding count reaches zero. This is the quiesce primitive the
// mode switch calls for rings caught mid-flight; an error means the
// datapath is wedged and the switch must not commit.
func (f *MQBlockFrontend) Drain(c *hw.CPU, pump func(*hw.CPU), fn func(xen.BlkResponse)) error {
	for round := 0; f.Outstanding() > 0; round++ {
		if round >= 10000 {
			return fmt.Errorf("guest: blkmq drain wedged: %d requests still outstanding",
				f.Outstanding())
		}
		f.KickStalled(c)
		if pump != nil {
			pump(c)
		}
		f.PollAll(c, fn)
	}
	return nil
}
