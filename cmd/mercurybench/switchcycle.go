package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/pgtable"
)

// switch-cycle: the §7.4 switch latency on a large working set. Resident
// processes hold about 4,100 pages while the main process repeats
// round trips of attach, an mprotect pair on a 10% region, detach, and
// another mprotect pair. It exercises core attach/detach and the xen
// frame recompute; host time is mostly PhysMem reads of the resident
// page tables. The lazy-MMU batching is on so that the virtual-mode
// mprotects issue a few multicalls rather than one hypercall per page.
var switchCycle = &workload{
	name: "switch-cycle",
	shape: fmt.Sprintf("M-N on 512 MiB, %d residents of ~%d pages, %d round trips, closed loop",
		switchProcs, switchPages, switchTrips),
	run: runSwitchCycle,
}

func init() { switchCycle.units = single(switchCycle, func() int { return switchTrips }) }

var (
	switchTrips      = 1000
	switchProcs      = 10
	switchPages      = 410 // mean resident pages per process
	switchCheckEvery = 100 // round trips between CheckInvariants
)

func runSwitchCycle(u unit, seed int64, m *meter) {
	// The seed spreads the working set: each resident holds
	// switchPages ± 2%, and the main process's region is a tenth of it all.
	rng := rand.New(rand.NewSource(seed))
	pages := make([]int, switchProcs)
	total := 0
	for i := range pages {
		spread := switchPages * 2 / 100
		pages[i] = switchPages - spread + rng.Intn(2*spread+1)
		total += pages[i]
	}
	region := total / 10
	tr := m.tr

	done := m.setup()
	sp := tr.begin("bench", "build M-N", -1, 0)
	s, err := bench.Build(bench.MN, bench.Options{MemBytes: 512 << 20,
		Policy: core.TrackRecompute, LazyMMU: true, Collector: tr.collector("M-N")})
	tr.end(sp, 0)
	if err != nil {
		panic(fmt.Sprintf("mercurybench: building M-N: %v", err))
	}
	mc := s.Mercury
	att := make([]float64, 0, switchTrips)
	det := make([]float64, 0, switchTrips)
	trip := make([]float64, 0, switchTrips)
	var before, after counters
	var sys0, sys1, faults0, faults1, calls0, calls1, pte0, pte1 uint64
	var readNS float64
	s.Run("switch-cycle", func(p *guest.Proc) {
		k := p.K
		hold, ready := k.NewPipe(), k.NewPipe()
		var tables []*pgtable.Tables
		sp := tr.begin("guest", "residents", -1, p.CPU().Now())
		for _, n := range pages {
			p.Fork("resident", func(rp *guest.Proc) {
				base := rp.Mmap(n, guest.ProtRead|guest.ProtWrite, true)
				rp.Touch(base, n, true)
				tables = append(tables, rp.AS.PT)
				rp.PipeWrite(ready, 1)
				rp.PipeRead(hold, 1)
				rp.Exit(0)
			})
		}
		p.PipeRead(ready, switchProcs)
		dirty := p.Mmap(region, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(dirty, region, true)
		tr.end(sp, p.CPU().Now())
		done()

		switchTo := func(i int, target core.Mode, name string) bool {
			sp := tr.begin("core", name, i, p.CPU().Now())
			err := mc.SwitchSync(p.CPU(), target)
			tr.end(sp, p.CPU().Now())
			if err != nil {
				m.check(fmt.Errorf("round trip %d: %s: %w", i, name, err))
				return false
			}
			return true
		}
		mprotectPair := func(i int) {
			sp := tr.begin("guest", "mprotect", i, p.CPU().Now())
			p.Mprotect(dirty, guest.ProtRead)
			p.Mprotect(dirty, guest.ProtRead|guest.ProtWrite)
			tr.end(sp, p.CPU().Now())
		}

		before = snapshot(p.CPU(), mc.Dom)
		sys0, faults0 = k.Stats.Syscalls.Load(), k.Stats.PageFaults.Load()
		calls0, pte0 = voCounts(s)
		m.start()
		for i := range switchTrips {
			t0 := p.CPU().Now()
			if !switchTo(i, core.ModePartialVirtual, "attach") {
				break
			}
			att = append(att, float64(mc.Stats.LastAttachCyc.Load()))
			mprotectPair(i)
			if !switchTo(i, core.ModeNative, "detach") {
				break
			}
			det = append(det, float64(mc.Stats.LastDetachCyc.Load()))
			mprotectPair(i)
			trip = append(trip, float64(p.CPU().Now()-t0))
			if (i+1)%switchCheckEvery == 0 {
				sp := tr.begin("core", "check-invariants", i, p.CPU().Now())
				if err := mc.CheckInvariants(p.CPU()); err != nil {
					m.check(fmt.Errorf("after round trip %d: %w", i+1, err))
				}
				tr.end(sp, p.CPU().Now())
			}
		}
		m.stop()
		after = snapshot(p.CPU(), mc.Dom)
		sys1, faults1 = k.Stats.Syscalls.Load(), k.Stats.PageFaults.Load()
		calls1, pte1 = voCounts(s)

		if tr != nil {
			var frames []hw.PFN
			for _, t := range tables {
				frames = append(frames, t.TableFrames()...)
			}
			sp := tr.begin("hw", "physmem-read", -1, p.CPU().Now())
			readNS = readFrames(k.M.Mem, frames)
			tr.end(sp, p.CPU().Now())
		}
		p.PipeWrite(hold, switchProcs)
		for range pages {
			p.Wait()
		}
	})
	if err := mc.CheckInvariants(s.M.BootCPU()); err != nil {
		m.check(fmt.Errorf("after the run: %w", err))
	}

	m.sim("sim_samples", float64(len(trip)))
	m.sim("sim_op_p50_us", us(hw.Cycles(rank(trip, 0.50))))
	m.sim("sim_op_p99_us", us(hw.Cycles(rank(trip, 0.99))))
	m.sim("attach_us", us(hw.Cycles(rank(att, 0.50))))
	m.sim("detach_us", us(hw.Cycles(rank(det, 0.50))))
	if tr == nil {
		return
	}
	n := float64(len(trip))
	before.record(m, after, n)
	m.layer("guest.syscalls_per_op", float64(sys1-sys0)/n)
	m.layer("guest.page_faults_per_op", float64(faults1-faults0)/n)
	m.layer("vo.calls_per_op", float64(calls1-calls0)/n)
	m.layer("vo.pte_writes_per_op", float64(pte1-pte0)/n)
	m.layer("hw.physmem_read_ns", readNS)
	m.layer("xen.hypercall_sim_cyc_p50", median(tr.simSpans("xen/hypercall")))
	m.layer("core.attach.host_us_p50", median(tr.hostDurs(-1, "attach")))
	m.layer("core.detach.host_us_p50", median(tr.hostDurs(-1, "detach")))
	spans := tr.cols[0].col.Tracer.Spans()
	for dir, names := range map[string][]string{"attach": attachPhases, "detach": detachPhases} {
		phases, _, _ := bench.PhaseBreakdown(spans, "switch/"+dir)
		for _, ph := range phases {
			for _, name := range names {
				if ph.Name == "phase/"+name {
					m.layer("core."+dir+"."+name+".sim_us", us(hw.Cycles(ph.TotalCyc))/float64(ph.Count))
				}
			}
		}
	}
	m.layer("core.deferred", float64(mc.Stats.Deferred.Load()))
	m.layer("core.fixed_frames", float64(mc.Stats.FixedFrames.Load()))
}
