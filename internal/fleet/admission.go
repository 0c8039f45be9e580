package fleet

import (
	"fmt"

	"repro/internal/obs"
)

// Tick is the fleet controller's discrete clock. Nodes keep their own
// cycle-accurate TSCs; the fleet layer schedules in coarse ticks (one
// tick ≈ one controller loop iteration) so admission decisions are
// deterministic and independent of per-node cycle jitter.
type Tick int64

// Request asks the admission controller for a virtual-mode slot.
type Request struct {
	Node       NodeID
	EnqueuedAt Tick
	// Deadline is the last tick at which a grant is still useful; a
	// request still queued past it expires and is returned to the
	// caller as failed admission.
	Deadline Tick
}

// AdmissionStats aggregates one controller's admission outcomes.
type AdmissionStats struct {
	Submitted int `json:"submitted"`
	Granted   int `json:"granted"`
	// Rejected counts backpressure: submissions refused because the
	// queue was at capacity.
	Rejected int `json:"rejected"`
	// Expired counts requests whose deadline passed while queued.
	Expired int `json:"expired"`
	// Canceled counts requests flushed by a wave abort.
	Canceled int `json:"canceled"`
	// MaxInUse is the high-water mark of concurrently granted slots —
	// the sweep and the chaos property assert it never exceeds
	// MaxVirtual.
	MaxInUse int `json:"max_in_use"`
	// MaxQueueDepth is the deepest the queue got.
	MaxQueueDepth int `json:"max_queue_depth"`
}

// Admission bounds how many nodes may hold a virtual-mode slot at once.
// Every attached node pays the ~15% virtualization tax of Table 1, so
// the fleet reserves capacity: switching is a scheduled resource, not a
// free action. Submissions beyond the queue capacity are rejected
// (backpressure); queued requests past their deadline expire.
//
// Admission is not safe for concurrent use: the controller drives it
// from its single-threaded tick loop, which is what keeps fleet runs
// deterministic.
type Admission struct {
	// MaxVirtual is the virtual-mode concurrency bound (≥ 1).
	MaxVirtual int
	// MaxQueue is the wait-queue capacity (≥ 1); a submission that
	// would grow the queue past it is rejected outright.
	MaxQueue int

	queue []*Request
	inUse int
	// stats holds the outcomes no counter keeps; Stats fills Granted,
	// Rejected and Expired from the counters.
	stats AdmissionStats

	granted  *obs.Counter // fleet/admission_granted_total
	rejected *obs.Counter // fleet/admission_rejected_total
	expired  *obs.Counter // fleet/admission_expired_total

	// Telemetry (nil-safe: left unset without a collector).
	depthGauge *obs.Gauge
	inUseGauge *obs.Gauge
}

// NewAdmission builds the controller. With a collector, queue depth and
// slot usage are exported as fleet/queue_depth and
// fleet/virtual_in_use, and the outcome counters are adopted into the
// series named beside them.
func NewAdmission(maxVirtual, maxQueue int, col *obs.Collector) *Admission {
	if maxVirtual < 1 {
		maxVirtual = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	a := &Admission{MaxVirtual: maxVirtual, MaxQueue: maxQueue,
		granted: obs.NewCounter(), rejected: obs.NewCounter(), expired: obs.NewCounter()}
	if col != nil {
		r := col.Registry
		a.depthGauge = r.Gauge("fleet", "queue_depth")
		a.inUseGauge = r.Gauge("fleet", "virtual_in_use")
		r.RegisterCounter(a.granted, "fleet", "admission_granted_total")
		r.RegisterCounter(a.rejected, "fleet", "admission_rejected_total")
		r.RegisterCounter(a.expired, "fleet", "admission_expired_total")
	}
	return a
}

// Submit queues a request. It returns false — backpressure — when the
// queue is full; the caller retries a later tick or gives up.
func (a *Admission) Submit(req *Request) bool {
	a.stats.Submitted++
	if len(a.queue) >= a.MaxQueue {
		a.rejected.Inc()
		return false
	}
	a.queue = append(a.queue, req)
	if d := len(a.queue); d > a.stats.MaxQueueDepth {
		a.stats.MaxQueueDepth = d
	}
	a.gauge()
	return true
}

// Grant pops expired requests and grants FIFO up to the concurrency
// bound. It returns the granted requests (possibly none) and the
// requests that expired this tick.
func (a *Admission) Grant(now Tick) (granted, expired []*Request) {
	kept := a.queue[:0]
	for _, req := range a.queue {
		switch {
		case req.Deadline > 0 && now > req.Deadline:
			a.expired.Inc()
			expired = append(expired, req)
		case a.inUse < a.MaxVirtual:
			a.inUse++
			if a.inUse > a.stats.MaxInUse {
				a.stats.MaxInUse = a.inUse
			}
			a.granted.Inc()
			granted = append(granted, req)
		default:
			kept = append(kept, req)
		}
	}
	// Zero the tail so flushed entries don't pin reports.
	for i := len(kept); i < len(a.queue); i++ {
		a.queue[i] = nil
	}
	a.queue = kept
	a.gauge()
	return granted, expired
}

// Release returns one granted slot.
func (a *Admission) Release() error {
	if a.inUse == 0 {
		return fmt.Errorf("fleet: release with no slot in use")
	}
	a.inUse--
	a.gauge()
	return nil
}

// Flush cancels every queued request (a wave abort) and returns how
// many were dropped. Granted slots stay accounted until Released.
func (a *Admission) Flush() int {
	n := len(a.queue)
	a.stats.Canceled += n
	for i := range a.queue {
		a.queue[i] = nil
	}
	a.queue = a.queue[:0]
	a.gauge()
	return n
}

// Depth returns the current queue depth.
func (a *Admission) Depth() int { return len(a.queue) }

// InUse returns how many slots are currently granted.
func (a *Admission) InUse() int { return a.inUse }

// Stats returns a copy of the accumulated admission outcomes.
func (a *Admission) Stats() AdmissionStats {
	s := a.stats
	s.Granted = int(a.granted.Load())
	s.Rejected = int(a.rejected.Load())
	s.Expired = int(a.expired.Load())
	return s
}

func (a *Admission) gauge() {
	if a.depthGauge != nil {
		a.depthGauge.Set(int64(len(a.queue)))
	}
	if a.inUseGauge != nil {
		a.inUseGauge.Set(int64(a.inUse))
	}
}
