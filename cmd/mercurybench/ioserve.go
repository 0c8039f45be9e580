package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// io-serve: the §5.2 split block datapath (rings, grants, event
// channels, BlkMQBackend) serving an open-loop request stream through
// workloads.RunIOServer on M-V, 4 queues x depth 64, 50% reads. It never
// walks page tables and never reads or writes PhysMem words, so it is
// the control workload for changes to those paths.
//
// Each rung offers one rate as a series of short bursts, each burst a
// fresh datapath. A burst ends before the first 10 ms scheduler tick:
// a tick that lands while the frontend holds a ring lock runs the
// backend's PollQueue from the timer interrupt, which takes the same
// ring lock and self-deadlocks (IORing.TakeResponses holds r.mu across
// Charge). Rungs of 100,000 requests hit this in about a third of seeds.
// Every burst boots its machine and attaches inside the timed section:
// that is about 13% of the rung's host CPU time and a fifth of its
// allocation (the README has the profile).
var ioServe = &workload{
	name: "io-serve",
	shape: fmt.Sprintf("M-V, 4 queues x 64, rungs %v k req/s x %d bursts of %d requests, open loop",
		ioRungs, ioBursts, ioRequests),
	run:    runIORung,
	finish: finishIO,
}

// ioRungs are the offered rates, in thousands of requests per second.
// The datapath saturates near 200k/s: the rungs straddle the p99 limit.
var ioRungs = []int{150, 165, 180, 195, 210, 225}

var (
	ioBursts   = 40
	ioRequests = 1100 // >= 1100, so at least ten requests lie beyond each burst's p99
)

const (
	// ioFixedRate is the rung the fixed-rate metrics come from.
	ioFixedRate = 150
	// ioP99LimitUS is the latency limit io_max_krps is judged by.
	ioP99LimitUS = 500
)

func init() {
	ioServe.units = func() []unit {
		var us []unit
		for _, r := range ioRungs {
			us = append(us, unit{workload: ioServe, name: fmt.Sprintf("io-serve/%d", r),
				rate: r, ops: ioBursts * ioRequests})
		}
		return us
	}
}

// burstSeed derives a burst's arrival seed; the warm-up burst is -1.
func burstSeed(seed int64, rate, burst int) int64 {
	return seed*1_000_003 + int64(rate)*1_009 + int64(burst)
}

func runIORung(u unit, seed int64, m *meter) {
	tr := m.tr
	serve := func(b int, col *obs.Collector) *workloads.IOResult {
		sp := tr.begin("workloads", "RunIOServer", b, 0)
		res, err := workloads.RunIOServer(workloads.IOConfig{
			Queues: 4, Depth: 64, Requests: ioRequests, ReadPct: 50,
			MeanArrival: hw.Cycles(hw.DefaultHz / uint64(u.rate*1000)),
			Seed:        burstSeed(seed, u.rate, b), Virtual: true,
			Policy: core.TrackRecompute, Collector: col,
		})
		if err != nil {
			tr.end(sp, 0)
			m.check(fmt.Errorf("burst %d: %w", b, err))
			return nil
		}
		tr.end(sp, res.TotalCyc)
		if res.Completed != ioRequests || res.Duplicates != 0 || res.Lost != 0 {
			m.check(fmt.Errorf("burst %d not exactly-once: %d of %d completed, %d duplicates, %d lost",
				b, res.Completed, ioRequests, res.Duplicates, res.Lost))
		}
		return res
	}

	done := m.setup()
	serve(-1, nil) // warm-up: one datapath brought up and served before timing
	done()

	var p50, p99 []float64
	var slots, rung, forced, bursts uint64
	m.start()
	for b := range ioBursts {
		var col *obs.Collector
		if b == 0 && u.rate == ioFixedRate {
			col = tr.collector("M-V burst 0")
		}
		res := serve(b, col)
		if res == nil {
			continue
		}
		p50 = append(p50, us(res.P50))
		p99 = append(p99, us(res.P99))
		slots += res.ReqSlots + res.RespSlots
		rung += res.ReqKicks + res.RespKicks + res.ForcedKicks
		forced += res.ForcedKicks
		bursts += res.BackendBursts
	}
	m.stop()

	// The median burst's quantiles are the rung's steady latency; the
	// worst burst's p99 is what the latency limit is judged by.
	key := fmt.Sprintf("io.%d.", u.rate)
	m.sim(key+"p50_us", median(p50))
	m.sim(key+"p99_us", median(p99))
	m.sim(key+"worst_p99_us", rank(p99, 1))
	m.sim("sim_samples", float64(len(p50)*ioRequests))
	m.layer("workloads."+key+"p99_us", rank(p99, 1))
	m.layer("workloads."+key+"host_s", m.res.HostS)
	if tr == nil || u.rate != ioFixedRate {
		return
	}
	m.layer("xen.slots_per_doorbell", float64(slots)/float64(rung))
	m.layer("xen.forced_kicks", float64(forced))
	m.layer("xen.backend_bursts", float64(bursts))
	col := tr.cols[0].col
	n := float64(ioRequests)
	m.layer("vo.calls_per_op", float64(counterSum(col, "vo", "calls_total"))/n)
	m.layer("vo.pte_writes_per_op", float64(counterSum(col, "vo", "pte_writes_total"))/n)
	m.layer("xen.hypercalls_per_op", float64(counterSum(col, "xen", "hypercalls_total"))/n)
	m.layer("xen.fault_bounces_per_op", float64(counterSum(col, "xen", "fault_bounces_total"))/n)
	m.layer("xen.multicall_ops_per_op", float64(counterSum(col, "xen", "multicall_ops_total"))/n)
	m.layer("xen.hypercall_sim_cyc_p50", median(tr.simSpans("xen/hypercall")))

	// CPU.Charge on a booted M-V machine with its timer armed: the
	// per-cycle-charge cost every simulated operation pays.
	sp := tr.begin("bench", "build M-V", -1, 0)
	s, err := bench.Build(bench.MV, bench.Options{Policy: core.TrackRecompute})
	tr.end(sp, 0)
	if err != nil {
		m.check(fmt.Errorf("building the charge probe: %w", err))
		return
	}
	c := s.M.BootCPU()
	sp = tr.begin("hw", "charge", -1, c.Now())
	m.layer("hw.charge_ns", hostLoop(func() {
		for range 10_000 {
			c.Charge(1)
		}
	}, 10_000))
	tr.end(sp, c.Now())
}

// finishIO takes the fixed-rate metrics from the 150k/s rung and finds
// the highest rung that served every burst exactly once with every
// burst's p99 within the limit.
func finishIO(r *repResult) {
	fixed := fmt.Sprintf("io.%d.", ioFixedRate)
	if v, ok := r.sim[fixed+"p50_us"]; ok {
		r.sim["sim_op_p50_us"] = v
		r.sim["sim_op_p99_us"] = r.sim[fixed+"p99_us"]
	}
	best := 0
	for _, rate := range ioRungs {
		if p99, ok := r.sim[fmt.Sprintf("io.%d.worst_p99_us", rate)]; ok && p99 <= ioP99LimitUS {
			best = rate
		}
	}
	r.sim["io_max_krps"] = float64(best)
}
