package xen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// IORing is the shared-memory I/O ring of the split device model
// (§5.2), in the style of Xen's ring.h: requests flow frontend->backend
// and responses flow back through free-running uint32 producer/consumer
// indices over a power-of-two slot array. Every split device — the
// multi-queue block datapath and the netif TX/RX pair — uses it. Beyond
// the classic layout it provides:
//
//   - Bulk transfer. PushRequests/TakeRequests move a whole burst under
//     one lock acquisition and one RingPut/RingGet charge, with the
//     per-slot cost reduced to the MemWrite/MemRead of the slot itself —
//     the amortization that lets a backend serve a 64-deep burst for
//     roughly the price of one request.
//
//   - Event-index doorbell suppression (Xen's req_event/rsp_event
//     protocol). The consumer advertises the producer index at which it
//     next wants a doorbell; the producer rings only when its push
//     crosses that mark. FinishRequestConsume(threshold) re-arms the
//     mark threshold slots ahead of the consumer — threshold 1 is the
//     classic Xen protocol (one doorbell per quiet->busy transition),
//     larger thresholds coalesce further and rely on the backend's
//     scheduler slice (Domain.BackgroundWork) to bound the wait for a
//     sub-threshold trickle.
//
// The lost-wakeup defense is the same FINAL CHECK as Xen's
// RING_FINAL_CHECK_FOR_REQUESTS: Finish*Consume returns true when work
// arrived between the drain and the re-arm, and the consumer must loop
// again instead of sleeping.
type IORing[Req, Resp any] struct {
	// mu guards the slots and indices only. Every method charges after
	// it drops, so a tick delivered by the charge can run the peer's
	// drain of this same ring.
	mu    sync.Mutex
	costs *hw.CostModel
	mask  uint32
	reqs  []Req
	resps []Resp

	reqProd, reqCons   uint32
	respProd, respCons uint32

	// reqEvent/respEvent are the peer-advertised wake marks: the
	// producer sends a doorbell only when a push moves the producer
	// index past the mark (unsigned wrap-around compare, exactly Xen's
	// RING_PUSH_*_AND_CHECK_NOTIFY).
	reqEvent, respEvent uint32

	// dropReqNotify forces the next n request-doorbell decisions to
	// "suppressed" (chaos: a lost doorbell). reqDropPending remembers
	// that a doorbell was swallowed so the consumer can account a
	// poll-side recovery when it finds the work anyway.
	dropReqNotify  int
	reqDropPending bool

	Stats IORingStats
}

// IORingStats counts slot traffic and doorbell decisions. The ratio of
// slots to doorbells sent is the notify-suppression ratio the datapath
// bench reports. Atomics: both ends may run on different CPUs. The
// doorbell counters are *obs.Counter so a block backend can adopt them
// into xen/ring_doorbells_total and xen/ring_doorbells_suppressed_total.
type IORingStats struct {
	ReqSlots  atomic.Uint64 // requests pushed
	RespSlots atomic.Uint64 // responses pushed

	ReqKicks       *obs.Counter // request pushes that crossed the wake mark
	ReqSuppressed  *obs.Counter // request pushes with the doorbell elided
	RespKicks      *obs.Counter // response pushes that crossed the wake mark
	RespSuppressed *obs.Counter // response pushes with the doorbell elided

	NotifiesDropped atomic.Uint64 // doorbells swallowed by fault injection
	RecoveredByPoll atomic.Uint64 // dropped doorbells healed by a poll drain
}

// DefaultRingSize is the slot count of each direction of a split-device
// ring. Real Xen rings hold 32 slots, but each block request carries up
// to 11 segments; one slot here moves a single page, so the larger count
// models the same per-notification batch.
const DefaultRingSize = 256

// NewIORing builds one queue with capacity slots per direction
// (rounded up to a power of two, min 2). Both wake marks start armed
// at index 1: the very first push in each direction rings the doorbell.
func NewIORing[Req, Resp any](capacity int, costs *hw.CostModel) *IORing[Req, Resp] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &IORing[Req, Resp]{
		costs:     costs,
		mask:      uint32(n - 1),
		reqs:      make([]Req, n),
		resps:     make([]Resp, n),
		reqEvent:  1,
		respEvent: 1,
		Stats: IORingStats{ReqKicks: obs.NewCounter(), ReqSuppressed: obs.NewCounter(),
			RespKicks: obs.NewCounter(), RespSuppressed: obs.NewCounter()},
	}
}

// Capacity is the slot count per direction.
func (r *IORing[Req, Resp]) Capacity() int { return int(r.mask) + 1 }

// PushRequests enqueues as many of reqs as fit, returning how many were
// taken and whether the producer must ring the request doorbell. One
// RingPut charge covers the whole burst; each slot costs a MemWrite.
func (r *IORing[Req, Resp]) PushRequests(c *hw.CPU, reqs []Req) (n int, notify bool) {
	r.mu.Lock()
	old := r.reqProd
	n = min(len(reqs), int(r.mask+1-(old-r.reqCons)))
	for i := 0; i < n; i++ {
		r.reqs[(old+uint32(i))&r.mask] = reqs[i]
	}
	r.reqProd = old + uint32(n)
	if n > 0 {
		r.Stats.ReqSlots.Add(uint64(n))
		// Xen's RING_PUSH_REQUESTS_AND_CHECK_NOTIFY: notify iff the
		// advertised wake mark lies in (old, new] under wrap arithmetic.
		notify = r.reqProd-r.reqEvent < r.reqProd-old
		if notify && r.dropReqNotify > 0 {
			r.dropReqNotify--
			r.reqDropPending = true
			r.Stats.NotifiesDropped.Add(1)
			notify = false
		}
		countDoorbell(notify, r.Stats.ReqKicks, r.Stats.ReqSuppressed)
	}
	r.mu.Unlock()
	c.Charge(r.costs.RingPut + hw.Cycles(n)*r.costs.MemWrite)
	return n, notify
}

// TakeRequests dequeues up to len(buf) pending requests into buf. One
// RingGet charge covers the burst; each slot costs a MemRead.
func (r *IORing[Req, Resp]) TakeRequests(c *hw.CPU, buf []Req) int {
	r.mu.Lock()
	n := int(r.reqProd - r.reqCons)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = r.reqs[(r.reqCons+uint32(i))&r.mask]
	}
	r.reqCons += uint32(n)
	if n > 0 && r.reqDropPending {
		// The producer's doorbell was swallowed but a poll drain found
		// the work anyway — the liveness fallback the protocol promises.
		r.reqDropPending = false
		r.Stats.RecoveredByPoll.Add(1)
	}
	r.mu.Unlock()
	c.Charge(r.costs.RingGet + hw.Cycles(n)*r.costs.MemRead)
	return n
}

// FinishRequestConsume re-arms the request doorbell threshold slots
// ahead of the consumer index and reports whether requests are already
// pending — the FINAL CHECK: on true the consumer must drain again
// rather than sleep, or a push that saw the old mark is lost.
func (r *IORing[Req, Resp]) FinishRequestConsume(c *hw.CPU, threshold int) bool {
	if threshold < 1 {
		threshold = 1
	}
	r.mu.Lock()
	r.reqEvent = r.reqCons + uint32(threshold)
	pending := r.reqProd != r.reqCons
	r.mu.Unlock()
	c.Charge(r.costs.MemWrite)
	return pending
}

// PushResponses enqueues completions. The response direction can never
// overflow: a slot is freed by the request the response answers, so the
// caller may assume every response fits. It panics on overflow rather
// than silently dropping a completion.
func (r *IORing[Req, Resp]) PushResponses(c *hw.CPU, resps []Resp) (notify bool) {
	r.mu.Lock()
	old := r.respProd
	if free := r.mask + 1 - (old - r.respCons); uint32(len(resps)) > free {
		r.mu.Unlock()
		panic(fmt.Sprintf("xen: IORing response overflow: %d responses, %d free", len(resps), free))
	}
	for i := range resps {
		r.resps[(old+uint32(i))&r.mask] = resps[i]
	}
	r.respProd = old + uint32(len(resps))
	if len(resps) > 0 {
		r.Stats.RespSlots.Add(uint64(len(resps)))
		notify = r.respProd-r.respEvent < r.respProd-old
		countDoorbell(notify, r.Stats.RespKicks, r.Stats.RespSuppressed)
	}
	r.mu.Unlock()
	c.Charge(r.costs.RingPut + hw.Cycles(len(resps))*r.costs.MemWrite)
	return notify
}

// countDoorbell records one non-empty push's doorbell decision.
func countDoorbell(notify bool, kicks, suppressed *obs.Counter) {
	if notify {
		kicks.Inc()
	} else {
		suppressed.Inc()
	}
}

// TakeResponses dequeues up to len(buf) completions into buf.
func (r *IORing[Req, Resp]) TakeResponses(c *hw.CPU, buf []Resp) int {
	r.mu.Lock()
	n := int(r.respProd - r.respCons)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = r.resps[(r.respCons+uint32(i))&r.mask]
	}
	r.respCons += uint32(n)
	r.mu.Unlock()
	c.Charge(r.costs.RingGet + hw.Cycles(n)*r.costs.MemRead)
	return n
}

// FinishResponseConsume is the response-direction FINAL CHECK: re-arm
// the response doorbell threshold slots ahead and report pending work.
func (r *IORing[Req, Resp]) FinishResponseConsume(c *hw.CPU, threshold int) bool {
	if threshold < 1 {
		threshold = 1
	}
	r.mu.Lock()
	r.respEvent = r.respCons + uint32(threshold)
	pending := r.respProd != r.respCons
	r.mu.Unlock()
	c.Charge(r.costs.MemWrite)
	return pending
}

// RequestsPending reports queued, un-consumed requests.
func (r *IORing[Req, Resp]) RequestsPending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.reqProd - r.reqCons)
}

// ResponsesPending reports queued, un-consumed responses.
func (r *IORing[Req, Resp]) ResponsesPending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.respProd - r.respCons)
}

// ReqConsumerIndex exposes the free-running request consumer index for
// progress audits (a stuck index with pending requests is a ring stall).
func (r *IORing[Req, Resp]) ReqConsumerIndex() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reqCons
}

// InjectDropNotify arms fault injection: the next n request doorbells
// that would be sent are silently swallowed (n=0 disarms). The protocol
// must heal through the poll path; RecoveredByPoll counts when it does.
func (r *IORing[Req, Resp]) InjectDropNotify(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropReqNotify = n
	if n == 0 {
		r.reqDropPending = false
	}
}
