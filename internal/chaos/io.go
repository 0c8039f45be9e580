package chaos

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/xen"
)

// IOEnv is the split-device datapath the I/O fault classes attack: its
// own host, whose dom0 is the driver domain running a multi-queue block
// backend, and a client domain pushing requests at it. A probe pushes a burst
// through the rings and lets the datapath's own defenses deliver the
// verdict — the backend's progress audit (ring stall) and the ring's
// poll-side recovery accounting (lost doorbell).
type IOEnv struct {
	*xen.Host
	Client *xen.Domain
	BE     *xen.BlkMQBackend

	probes int
}

const (
	ioEnvQueues = 2
	ioEnvDepth  = 16
	ioEnvBurst  = 8
)

// NewIOEnv boots a split-device node: dom0 serving a multi-queue block
// backend and a client domain granting I/O buffers.
func NewIOEnv() (*IOEnv, error) {
	h, err := xen.BootHost(hw.Config{Name: "io-node", MemBytes: 128 << 20, NumCPUs: 1}, 1024)
	if err != nil {
		return nil, fmt.Errorf("chaos: booting io node: %w", err)
	}
	client, err := h.V.CreateDomain("io-client", 256, false)
	if err != nil {
		return nil, fmt.Errorf("chaos: io node client domain: %w", err)
	}
	be := xen.NewBlkMQBackend(h.V, h.Dom0, h.M.Disk, ioEnvQueues, ioEnvDepth, 1)
	return &IOEnv{Host: h, Client: client, BE: be}, nil
}

// Probe pushes one burst per queue through the rings, pumps the backend
// the way a scheduler slice would, and judges the datapath by its own
// defenses. The returned anomaly is non-empty when a defense tripped; a
// non-nil error means the datapath broke an invariant it must uphold
// regardless of faults — a lost or duplicated request, or a wedge no
// recovery path cleared.
func (ie *IOEnv) Probe() (anomaly string, err error) {
	ie.probes++
	c, be := ie.C, ie.BE

	recovBefore := ie.ringRecovered()

	want := make(map[uint64]int)
	notifies := make([]bool, ioEnvQueues)
	for qi := 0; qi < ioEnvQueues; qi++ {
		q := be.Queues[qi]
		reqs := make([]xen.BlkRequest, 0, ioEnvBurst)
		for i := 0; i < ioEnvBurst; i++ {
			// Per-probe ID namespace so a stale response from an earlier
			// probe's stalled queue shows up as a duplicate, not a match.
			id := uint64(ie.probes)<<16 | uint64(qi)<<8 | uint64(i)
			pfn := ie.Client.Frames.Alloc()
			ref := ie.Client.GrantAccess(c, ie.Dom0.ID, pfn, true)
			reqs = append(reqs, xen.BlkRequest{
				ID: id, Block: uint64(qi*4096) + uint64(i),
				Write: true, Grant: ref, Front: ie.Client.ID,
			})
			want[id] = 0
		}
		n, notify := q.Ring.PushRequests(c, reqs)
		if n != len(reqs) {
			return "", fmt.Errorf("chaos: io probe pushed %d of %d on queue %d", n, len(reqs), qi)
		}
		notifies[qi] = notify
	}
	// Arm the progress detector while the burst is queued, then give the
	// backend its doorbells plus the scheduler-slice backstop — even a
	// swallowed doorbell gets a service pass.
	_ = be.Audit()
	for qi, notify := range notifies {
		if notify {
			be.OnQueueEvent(qi)
		}
	}
	be.Serve(c, 1<<30)

	// The datapath's defenses deliver the verdict.
	if msg := be.Audit(); msg != "" {
		return msg, nil
	}
	if d := ie.ringRecovered() - recovBefore; d > 0 {
		return fmt.Sprintf("doorbell lost, %d recovered by poll", d), nil
	}

	// No defense tripped: the burst must have completed exactly once.
	resp := make([]xen.BlkResponse, ioEnvDepth)
	for qi := 0; qi < ioEnvQueues; qi++ {
		q := be.Queues[qi]
		for {
			n := q.Ring.TakeResponses(c, resp)
			if n == 0 {
				if !q.Ring.FinishResponseConsume(c, 1) {
					break
				}
				continue
			}
			for _, r := range resp[:n] {
				if r.Err != "" {
					return "", fmt.Errorf("chaos: io probe request %d failed: %s", r.ID, r.Err)
				}
				seen, ok := want[r.ID]
				if !ok || seen != 0 {
					return "", fmt.Errorf("chaos: io probe response %d duplicated or alien", r.ID)
				}
				want[r.ID] = 1
			}
		}
	}
	for id, seen := range want {
		if seen != 1 {
			return "", fmt.Errorf("chaos: io probe request %d lost", id)
		}
	}
	return "", nil
}

// settle drains everything still queued from a faulted probe (stalled
// queues un-stalled, dropped doorbells recovered) so the next probe
// starts clean.
func (ie *IOEnv) settle() error {
	be := ie.BE
	for i := 0; i < 100 && be.Pending() > 0; i++ {
		be.Serve(ie.C, 1<<30)
	}
	if be.Pending() > 0 {
		return fmt.Errorf("chaos: io env did not settle, %d pending", be.Pending())
	}
	resp := make([]xen.BlkResponse, ioEnvDepth)
	for _, q := range be.Queues {
		for q.Ring.TakeResponses(ie.C, resp) > 0 {
		}
		q.Ring.FinishResponseConsume(ie.C, 1)
	}
	return nil
}

func (ie *IOEnv) ringRecovered() uint64 {
	var n uint64
	for _, q := range ie.BE.Queues {
		n += q.Ring.Stats.RecoveredByPoll.Load()
	}
	return n
}

// IOFaults returns the fault classes aimed at the split-device
// datapath. They need an I/O environment, so Run only adds them when
// cfg.IO is set. Both are expected to be caught by the datapath's own
// defenses (DetectIO): the backend's progress audit and the ring's
// poll-recovery accounting.
func IOFaults() []*Fault {
	return []*Fault{
		{
			// A wedged backend queue: the consumer index stops advancing
			// while requests pile up. The progress audit must flag it.
			Name: "io-ring-stall", Layer: LayerVMM, Detector: DetectIO,
			Inject: func(ctx *Ctx) (*Active, error) {
				qi := ctx.Rand.Intn(ioEnvQueues)
				ctx.IO.BE.StallQueue(qi, true)
				return &Active{Undo: func() { ctx.IO.BE.StallQueue(qi, false) }}, nil
			},
		},
		{
			// A swallowed doorbell: the event channel loses a notify and
			// the burst sits queued until a poll-side drain recovers it.
			Name: "io-doorbell-lost", Layer: LayerHW, Detector: DetectIO,
			Inject: func(ctx *Ctx) (*Active, error) {
				qi := ctx.Rand.Intn(ioEnvQueues)
				q := ctx.IO.BE.Queues[qi]
				q.Ring.InjectDropNotify(1)
				return &Active{Undo: func() { q.Ring.InjectDropNotify(0) }}, nil
			},
		},
	}
}

// detectIO expects the datapath's own defenses to report the fault: a
// probe must surface an anomaly while the fault is active, and run
// completely clean once it is removed.
func detectIO(ctx *Ctx, cfg Config, ep *Episode, act *Active) error {
	ie := cfg.IO
	if ie == nil {
		return fmt.Errorf("io fault needs an io environment")
	}
	anomaly, err := ie.Probe()
	if err != nil {
		return err
	}
	if anomaly != "" {
		ep.Detected = true
		ep.Detail = anomaly
	}
	act.Undo()
	if err := ie.settle(); err != nil {
		return err
	}
	// With the fault removed a full burst must flow exactly-once.
	clean, err := ie.Probe()
	if err != nil {
		return fmt.Errorf("probe after undo: %w", err)
	}
	if clean != "" {
		return fmt.Errorf("fault survived undo: %s", clean)
	}
	if ep.Detected {
		ep.Healed = true
	}
	return nil
}
