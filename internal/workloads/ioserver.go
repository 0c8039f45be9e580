package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// The request-serving workload (§5.2/§7.3): an open-loop stream of
// block I/O requests arrives at a seeded jittered-uniform rate and is
// served either by the native block layer (M-N) or through the
// multi-queue split datapath (M-V) — per-queue rings, coalesced
// doorbells, and a backend in the driver domain that the VMM's credit
// scheduler runs as a real domain. With SwitchMid set, a mode switch
// fires at the halfway point while requests are in flight, and the
// result reports the tail latency of the requests whose lifetime
// crossed the switch window — the mode-switch tail-latency story.

// IOConfig parameterizes one request-serving run.
type IOConfig struct {
	// Queues is the number of hardware queues (M-V only; per-vCPU in a
	// real system). Default 1.
	Queues int
	// Depth is the ring depth per queue in slots (rounded up to a power
	// of two). Default 64.
	Depth int
	// Requests is the total number of requests to issue. Default 2000.
	Requests int
	// MeanArrival is the mean open-loop inter-arrival gap in cycles;
	// actual gaps are jittered uniformly in [mean/2, 3*mean/2).
	// Default 8000.
	MeanArrival hw.Cycles
	// ReadPct is the percentage of reads in the mix, in [0, 100]; 0
	// (the zero value) means all writes. RunIOServer refuses any other
	// value.
	ReadPct int
	// Seed drives arrivals and the read/write mix deterministically.
	Seed int64
	// Virtual selects the M-V split datapath; false is the M-N native
	// block layer.
	Virtual bool
	// SwitchMid, with Virtual set, requests a switch to native mode once
	// half the requests have completed, while the rest are in flight.
	SwitchMid bool
	// Policy is Mercury's frame-tracking policy.
	Policy core.TrackingPolicy
	// Collector, when non-nil, is installed before construction.
	Collector *obs.Collector
}

func (cfg *IOConfig) fill() {
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.Depth < 2 {
		cfg.Depth = 64
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	if cfg.MeanArrival == 0 {
		cfg.MeanArrival = 8000
	}
}

// IOResult reports one run.
type IOResult struct {
	Submitted  int `json:"submitted"`
	Completed  int `json:"completed"`
	Duplicates int `json:"duplicates"` // responses for an already-completed ID
	Lost       int `json:"lost"`       // submitted but never completed

	// Whole-run latency distribution (cycles, exact quantiles).
	P50  hw.Cycles `json:"p50"`
	P99  hw.Cycles `json:"p99"`
	P999 hw.Cycles `json:"p999"`
	Max  hw.Cycles `json:"max"`
	Mean hw.Cycles `json:"mean"`

	// TotalCyc is the boot CPU's elapsed cycles for the run.
	TotalCyc hw.Cycles `json:"total_cyc"`

	// Doorbell accounting across both ring directions (M-V only).
	ReqSlots    uint64 `json:"req_slots"`
	ReqKicks    uint64 `json:"req_kicks"`
	RespSlots   uint64 `json:"resp_slots"`
	RespKicks   uint64 `json:"resp_kicks"`
	ForcedKicks uint64 `json:"forced_kicks"`
	// SuppressionRatio is ring slots moved per doorbell actually rung
	// (forced kicks included); 0 when no doorbell was ever needed.
	SuppressionRatio float64 `json:"suppression_ratio"`

	// Backend scheduling: doorbell upcalls vs requests served, so the
	// share of work done by credit-scheduler slices is visible.
	BackendEvents uint64 `json:"backend_events"`
	BackendBursts uint64 `json:"backend_bursts"`

	// Mode-switch window (SwitchMid only): the detach's own cycles and
	// the latency distribution of requests whose [arrival, completion]
	// crossed the switch window.
	SwitchCyc      hw.Cycles `json:"switch_cyc"`
	WindowRequests int       `json:"window_requests"`
	WindowP50      hw.Cycles `json:"window_p50"`
	WindowP99      hw.Cycles `json:"window_p99"`
	WindowP999     hw.Cycles `json:"window_p999"`

	FinalMode string `json:"final_mode"`
}

// ioRec tracks one request's lifetime (its arrival stamp lives in the
// server's arrivals schedule, indexed by request ID).
type ioRec struct {
	done   hw.Cycles
	pfn    hw.PFN
	active bool
}

// QuiescerName is the detach-quiescer registration the M-V datapath
// installs; tests and tools can unregister it by name.
const QuiescerName = "io-datapath"

// RunIOServer builds a Mercury system, runs the request-serving
// workload, and reports the result. Deterministic for a given config.
func RunIOServer(cfg IOConfig) (*IOResult, error) {
	if cfg.ReadPct < 0 || cfg.ReadPct > 100 {
		return nil, fmt.Errorf("workloads: io server: read percentage %d outside [0, 100]", cfg.ReadPct)
	}
	cfg.fill()
	hwCfg := hw.DefaultConfig()
	hwCfg.Name = "io-server"
	m := hw.NewMachine(hwCfg)
	if cfg.Collector != nil {
		m.SetTelemetry(cfg.Collector)
	}
	mc, err := core.New(core.Config{Machine: m, Policy: cfg.Policy})
	if err != nil {
		return nil, fmt.Errorf("workloads: io server: %w", err)
	}
	boot := m.BootCPU()
	nb := &guest.NativeBlock{K: mc.K, Disk: m.Disk}

	// Pre-draw the arrival schedule and read/write mix. Integer
	// jittered-uniform gaps keep the schedule identical across Go
	// versions (no float stream).
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := make([]hw.Cycles, cfg.Requests)
	writes := make([]bool, cfg.Requests)
	t := boot.Now()
	for i := range arrivals {
		gap := int64(cfg.MeanArrival)/2 + rng.Int63n(int64(cfg.MeanArrival))
		t += hw.Cycles(gap)
		arrivals[i] = t
		writes[i] = int(rng.Int63n(100)) >= cfg.ReadPct
	}

	recs := make([]ioRec, cfg.Requests)
	res := &IOResult{}
	srv := &ioServer{
		cfg: cfg, m: m, mc: mc, boot: boot, nb: nb,
		arrivals: arrivals, writes: writes, recs: recs, res: res,
	}
	if cfg.Virtual {
		if err := srv.setupVirtual(); err != nil {
			return nil, err
		}
	}
	start := boot.Now()
	if err := srv.run(); err != nil {
		return nil, err
	}
	res.TotalCyc = boot.Now() - start
	srv.finish()
	return res, nil
}

// ioServer is the run state of one request-serving workload.
type ioServer struct {
	cfg  IOConfig
	m    *hw.Machine
	mc   *core.Mercury
	boot *hw.CPU
	nb   *guest.NativeBlock

	arrivals []hw.Cycles
	writes   []bool
	recs     []ioRec
	res      *IOResult

	// M-V datapath (nil/zero when native).
	client  *xen.Domain
	be      *xen.BlkMQBackend
	fe      *guest.MQBlockFrontend
	virtual bool // datapath currently attached

	// Frame pools: client-owned for granted M-V buffers, kernel-owned
	// for the native path.
	clientPool []hw.PFN
	nativePool []hw.PFN

	nextArr   int   // next arrival index to admit
	pending   []int // arrived, not yet submitted
	doneCount int
	rr        int // round-robin queue cursor

	switchStart hw.Cycles
	switchEnd   hw.Cycles
	switched    bool

	subBuf []guest.MQIORequest
	blkBuf []guest.BlockReq
}

// blockFor spreads request i across the disk with enough adjacency for
// occasional elevator merges but no degenerate fully-sequential runs.
func (s *ioServer) blockFor(i int) uint64 { return uint64(i*7) % 4096 }

// setupVirtual switches to partial-virtual mode and wires the
// multi-queue split datapath: a client (frontend) domain whose memory
// the driver domain donates, per-queue rings and doorbell pairs, the
// backend registered as the driver domain's background work (credit-
// scheduled), and the detach quiescer that drains it all on a switch.
func (s *ioServer) setupVirtual() error {
	cfg, mc, boot := s.cfg, s.mc, s.boot
	if err := mc.SwitchSync(boot, core.ModePartialVirtual); err != nil {
		return fmt.Errorf("workloads: io server: attach: %w", err)
	}
	v := mc.VMM
	poolFrames := cfg.Queues*cfg.Depth + 8
	client, err := v.HypDomctlCreateFromFrames(boot, mc.Dom, "io-client",
		hw.PFN(poolFrames+8))
	if err != nil {
		return fmt.Errorf("workloads: io server: client domain: %w", err)
	}
	s.client = client
	for i := 0; i < poolFrames; i++ {
		s.clientPool = append(s.clientPool, client.Frames.Alloc())
	}

	// Both doorbells re-arm a quarter ring behind (see xen.IORing).
	threshold := max(cfg.Depth/4, 1)
	s.be = xen.NewBlkMQBackend(v, mc.Dom, s.nb.RawDevice(),
		cfg.Queues, cfg.Depth, threshold)
	mc.Dom.BackgroundWork = s.be.Serve
	v.SetWeight(mc.Dom, 512)
	s.fe = guest.NewMQBlockFrontend(v, client, mc.Dom.ID, threshold)
	if err := s.fe.Connect(boot, s.be); err != nil {
		return fmt.Errorf("workloads: io server: %w", err)
	}

	// The client becomes the measured (current) domain; its timer
	// handler re-arms the tick so the VMM keeps granting the driver
	// domain its credit-scheduler slices.
	tick := hw.Cycles(s.m.Hz / guest.DefaultHzTicks)
	v.HypBindVirqTimer(boot, client, func(tc *hw.CPU) {
		v.HypSetTimer(tc, client, tc.Now()+tick)
	})
	v.SetCurrent(boot, client)
	s.virtual = true

	// The quiesce contract: before detach may commit, drain every
	// in-flight request (completions recorded exactly once, same as the
	// steady-state path), then tear the client down and hand the CPU
	// back to the driver domain so the hosted-domains check passes.
	mc.RegisterDetachQuiescer(QuiescerName, func(qc *hw.CPU) error {
		if !s.virtual {
			return nil
		}
		pump := func(pc *hw.CPU) {
			v.RunInDomain(pc, mc.Dom, func() {
				s.be.Serve(pc, tick)
			})
		}
		if err := s.fe.Drain(qc, pump, func(resp xen.BlkResponse) {
			s.complete(qc, resp)
		}); err != nil {
			return err
		}
		if err := v.HypDomctlDestroy(qc, mc.Dom, s.client.ID); err != nil {
			return err
		}
		v.SetCurrent(qc, mc.Dom)
		s.virtual = false
		return nil
	})
	return nil
}

// complete records one response, catching duplicates and recycling the
// request's buffer frame into the client pool.
func (s *ioServer) complete(c *hw.CPU, resp xen.BlkResponse) {
	id := int(resp.ID)
	r := &s.recs[id]
	if !r.active {
		s.res.Duplicates++
		return
	}
	r.active = false
	r.done = c.Now()
	s.doneCount++
	s.clientPool = append(s.clientPool, r.pfn)
	if resp.Err != "" {
		panic(fmt.Sprintf("workloads: io server: request %d failed: %s", id, resp.Err))
	}
}

// submitVirtual pushes as much of the pending queue as ring room and
// the frame pool allow, spreading across queues round-robin, then
// delivers all queue doorbells in one multicall.
func (s *ioServer) submitVirtual(c *hw.CPU) int {
	total := 0
	for attempts := 0; attempts < s.cfg.Queues && len(s.pending) > 0 && len(s.clientPool) > 0; attempts++ {
		qi := s.rr % s.cfg.Queues
		s.rr++
		n := len(s.pending)
		if n > len(s.clientPool) {
			n = len(s.clientPool)
		}
		s.subBuf = s.subBuf[:0]
		for _, id := range s.pending[:n] {
			pfn := s.clientPool[len(s.clientPool)-1]
			s.clientPool = s.clientPool[:len(s.clientPool)-1]
			s.recs[id].pfn = pfn
			s.recs[id].active = true
			s.subBuf = append(s.subBuf, guest.MQIORequest{
				ID: uint64(id), Block: s.blockFor(id), Write: s.writes[id], PFN: pfn,
			})
		}
		acc := s.fe.SubmitAsync(c, qi, s.subBuf)
		// Return unaccepted requests' frames and keep them pending.
		for _, r := range s.subBuf[acc:] {
			s.recs[r.ID].active = false
			s.clientPool = append(s.clientPool, r.PFN)
		}
		s.pending = s.pending[acc:]
		total += acc
	}
	if total > 0 {
		s.fe.Kick(c)
		s.res.Submitted += total
	}
	return total
}

// serveNative drains the pending queue through the native block layer
// (synchronous, elevator-merged), chunked by the native frame pool.
func (s *ioServer) serveNative(c *hw.CPU) int {
	if len(s.nativePool) == 0 {
		for i := 0; i < 64; i++ {
			s.nativePool = append(s.nativePool, s.mc.K.Frames.Alloc())
		}
	}
	total := 0
	for len(s.pending) > 0 {
		n := len(s.pending)
		if n > len(s.nativePool) {
			n = len(s.nativePool)
		}
		chunk := s.pending[:n]
		s.blkBuf = s.blkBuf[:0]
		for i, id := range chunk {
			s.blkBuf = append(s.blkBuf, guest.BlockReq{
				Block: s.blockFor(id), Write: s.writes[id], PFN: s.nativePool[i],
			})
		}
		s.nb.Submit(c, s.blkBuf)
		now := c.Now()
		for _, id := range chunk {
			s.recs[id].done = now
			s.doneCount++
		}
		s.res.Submitted += n
		s.pending = s.pending[n:]
		total += n
	}
	return total
}

// run is the open-loop serving loop: admit due arrivals, submit, poll
// completions, force-kick a sub-threshold tail the coalescing protocol
// left queued, and advance simulated time when genuinely idle.
func (s *ioServer) run() error {
	c := s.boot
	maxIters := s.cfg.Requests*200 + 100_000
	for iter := 0; s.doneCount < s.cfg.Requests; iter++ {
		if iter >= maxIters {
			return fmt.Errorf("workloads: io server wedged: %d/%d done, %d pending",
				s.doneCount, s.cfg.Requests, len(s.pending))
		}
		now := c.Now()
		for s.nextArr < s.cfg.Requests && s.arrivals[s.nextArr] <= now {
			s.pending = append(s.pending, s.nextArr)
			s.nextArr++
		}
		progress := 0
		if s.virtual {
			progress += s.submitVirtual(c)
			progress += s.pollVirtual(c)
		} else if len(s.pending) > 0 {
			progress += s.serveNative(c)
		}
		if s.cfg.SwitchMid && !s.switched && s.doneCount*2 >= s.cfg.Requests {
			s.switched = true
			s.switchStart = c.Now()
			if err := s.mc.SwitchSync(c, core.ModeNative); err != nil {
				return fmt.Errorf("workloads: io server: switch under load: %w", err)
			}
			s.switchEnd = c.Now()
			s.res.SwitchCyc = hw.Cycles(s.mc.Stats.LastDetachCyc.Load())
			progress++
		}
		if progress == 0 {
			if s.nextArr < s.cfg.Requests {
				if gap := s.arrivals[s.nextArr] - c.Now(); gap > 0 {
					c.Charge(gap)
				} else {
					c.Charge(50)
				}
			} else {
				// Tail: everything issued, completions still in flight.
				c.Charge(500)
			}
		}
	}
	return nil
}

// pollVirtual collects completions from every queue; if nothing came
// back while requests sit queued past a suppressed doorbell, it rings
// the doorbell unconditionally — the liveness half of the coalescing
// protocol (the backend's scheduler slices are the other half).
func (s *ioServer) pollVirtual(c *hw.CPU) int {
	done := func(resp xen.BlkResponse) { s.complete(c, resp) }
	polled := s.fe.PollAll(c, done)
	if polled == 0 && s.fe.Outstanding() > 0 && s.fe.KickStalled(c) {
		polled += s.fe.PollAll(c, done)
	}
	return polled
}

// finish folds counters and computes the exact latency quantiles.
func (s *ioServer) finish() {
	res, cfg := s.res, s.cfg
	res.Completed = s.doneCount
	res.Lost = res.Submitted - res.Completed
	res.FinalMode = s.mc.Mode().String()
	if s.cfg.Virtual {
		s.mc.UnregisterDetachQuiescer(QuiescerName)
		var reqSlots, reqKicks, respSlots, respKicks uint64
		for _, q := range s.be.Queues {
			st := &q.Ring.Stats
			reqSlots += st.ReqSlots.Load()
			reqKicks += st.ReqKicks.Load()
			respSlots += st.RespSlots.Load()
			respKicks += st.RespKicks.Load()
		}
		res.ReqSlots, res.ReqKicks = reqSlots, reqKicks
		res.RespSlots, res.RespKicks = respSlots, respKicks
		res.ForcedKicks = s.fe.Stats.ForcedKicks.Load()
		if rung := reqKicks + respKicks + res.ForcedKicks; rung > 0 {
			res.SuppressionRatio = float64(reqSlots+respSlots) / float64(rung)
		}
		res.BackendEvents = s.be.Stats.Events.Load()
		res.BackendBursts = s.be.Stats.Bursts.Load()
	}

	lat := make([]hw.Cycles, 0, len(s.recs))
	var sum uint64
	var window []hw.Cycles
	for i := range s.recs {
		r := &s.recs[i]
		if r.done == 0 {
			continue
		}
		arr := s.arrivals[i]
		l := r.done - arr
		lat = append(lat, l)
		sum += uint64(l)
		if cfg.SwitchMid && s.switched &&
			arr <= s.switchEnd && r.done >= s.switchStart {
			window = append(window, l)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		res.P50 = quantile(lat, 0.50)
		res.P99 = quantile(lat, 0.99)
		res.P999 = quantile(lat, 0.999)
		res.Max = lat[len(lat)-1]
		res.Mean = hw.Cycles(sum / uint64(len(lat)))
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	res.WindowRequests = len(window)
	if len(window) > 0 {
		res.WindowP50 = quantile(window, 0.50)
		res.WindowP99 = quantile(window, 0.99)
		res.WindowP999 = quantile(window, 0.999)
	}
}

// quantile returns the q-quantile of sorted (nearest-rank).
func quantile(sorted []hw.Cycles, q float64) hw.Cycles {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
