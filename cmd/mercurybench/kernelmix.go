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

// kernel-mix: one seeded op stream run identically on N-L, M-N and M-V.
// It carries the paper's native-tax and virtual-tax claims. Simulated
// time goes to guest -> vo -> xen (mmu_update, fault bounces); host time
// goes to pgtable walks over PhysMem reads. The op count is fixed
// because host throughput falls as the stream grows: the mmap cursor
// never reuses address space, so every munmap and fork walks a growing
// page directory.
var kernelMix = &workload{
	name:  "kernel-mix",
	shape: fmt.Sprintf("N-L, M-N and M-V x %d ops each, closed loop, 1 process", mixOps),
	run:   runKernelMix,
}

func init() { kernelMix.units = single(kernelMix, func() int { return 3 * mixOps }) }

// mixOps is the stream length per system (a variable so tests can
// shrink it, like every workload size).
var mixOps = 5000

// mixClasses names the op classes.
var mixClasses = []string{"file", "mmap", "fork", "work"}

// mixDeck is the class mix of every ten ops, dealt in a seeded order:
// fixed shares keep the quantiles from wandering with the seed. An mmap
// op's cost steps with its page count, so a quantile that lands on such
// a step would repeat across seeds and then jump; the shares and sizes
// keep both quantiles off the steps. Compute (20%) and file ops (40%,
// cost linear in bytes) fill the cheapest 60%, so the median is a file
// op; mmap ops (30%, 5..8 pages) cost more than any file op at the
// median; forks (10%), whose child computes for a random time, hold the
// top tenth and with it the p99.
var mixDeck = [10]int{3, 3, 0, 0, 0, 0, 1, 1, 1, 2}

// mixOp is one generated op: its class and sizes.
type mixOp struct {
	class int
	n     int // file bytes, mmap pages, fork child pages, or compute cycles
	work  int // the fork child's compute cycles
}

// mixStream generates the op stream; the systems receive only this.
func mixStream(seed int64, n int) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]mixOp, n)
	deck := mixDeck
	for i := range ops {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		switch c := deck[i%len(deck)]; c {
		case 0:
			ops[i] = mixOp{class: c, n: 4096 + rng.Intn(24*1024)}
		case 1:
			ops[i] = mixOp{class: c, n: 5 + rng.Intn(4)}
		case 2:
			ops[i] = mixOp{class: c, n: 1 + rng.Intn(8), work: 2_000 + rng.Intn(18_000)}
		default:
			ops[i] = mixOp{class: c, n: 1_000 + rng.Intn(19_000)}
		}
	}
	return ops
}

// mixRun is what one system's run of the stream produced.
type mixRun struct {
	sys     *bench.System
	span    int // the run's span, parent of its ops' spans
	elapsed hw.Cycles
	opCyc   []float64 // simulated cycles per op
	// Logical counts, which must match exactly across systems.
	syscalls, forks, faults, pteWrites uint64
}

func runKernelMix(u unit, seed int64, m *meter) {
	ops := mixStream(seed, mixOps)
	tr := m.tr

	// Set-up: a short warm-up stream on a throw-away system lets lazy
	// runtime set-up finish, then the three measured systems boot.
	done := m.setup()
	build := func(key bench.SystemKey, traced bool) *bench.System {
		opt := bench.Options{Policy: core.TrackRecompute}
		if traced {
			opt.Collector = tr.collector(string(key))
		}
		sp := tr.begin("bench", "build "+string(key), -1, 0)
		defer tr.end(sp, 0)
		s, err := bench.Build(key, opt)
		if err != nil {
			panic(fmt.Sprintf("mercurybench: building %s: %v", key, err))
		}
		return s
	}
	mixOnce(build(bench.NL, false), mixStream(seed+1, max(mixOps/25, 1)), nil, nil)
	var systems []*bench.System
	for _, key := range []bench.SystemKey{bench.NL, bench.MN, bench.MV} {
		systems = append(systems, build(key, true))
	}
	done()

	// On a traced rep, the M-V process probes its page-table tree after
	// its last op, with the timed section paused: the probes read memory
	// without charging simulated time.
	var probe tableProbe
	atEnd := func(p *guest.Proc) {
		m.stop()
		probe = probeTables(p, tr)
		m.start()
	}
	mvSys := systems[2]
	mvBefore := snapshot(mvSys.M.BootCPU(), mvSys.Dom)
	m.start()
	runs := make([]*mixRun, len(systems))
	for i, s := range systems {
		var hook func(*guest.Proc)
		if tr != nil && s == mvSys {
			hook = atEnd
		}
		runs[i] = mixOnce(s, ops, tr, hook)
	}
	m.stop()
	mvAfter := snapshot(mvSys.M.BootCPU(), mvSys.Dom)

	nl, mn, mv := runs[0], runs[1], runs[2]
	for _, r := range runs[1:] {
		for _, c := range []struct {
			what string
			a, b uint64
		}{
			{"syscalls", nl.syscalls, r.syscalls},
			{"forks", nl.forks, r.forks},
			{"page faults", nl.faults, r.faults},
			{"vo PTE writes", nl.pteWrites, r.pteWrites},
		} {
			if c.a != c.b {
				m.check(fmt.Errorf("%s on N-L %d, on %s %d", c.what, c.a, r.sys.Key, c.b))
			}
		}
		if err := r.sys.Mercury.CheckInvariants(r.sys.M.BootCPU()); err != nil {
			m.check(fmt.Errorf("%s: %w", r.sys.Key, err))
		}
	}

	m.sim("sim_samples", float64(len(mv.opCyc)))
	m.sim("sim_op_p50_us", us(hw.Cycles(rank(mv.opCyc, 0.50))))
	m.sim("sim_op_p99_us", us(hw.Cycles(rank(mv.opCyc, 0.99))))
	m.sim("native_tax_pct", taxPct(nl.elapsed, mn.elapsed))
	m.sim("virtual_tax_pct", taxPct(nl.elapsed, mv.elapsed))
	if tr == nil {
		return
	}
	n := float64(len(ops))
	for ci, class := range mixClasses {
		var cyc []float64
		for i, op := range ops {
			if op.class == ci {
				cyc = append(cyc, mv.opCyc[i])
			}
		}
		m.layer("guest."+class+".sim_us_p50", us(hw.Cycles(median(cyc))))
		m.layer("guest."+class+".host_us_p50", median(tr.hostDurs(mv.span, class)))
	}
	m.layer("guest.syscalls_per_op", float64(mv.syscalls)/n)
	m.layer("guest.page_faults_per_op", float64(mv.faults)/n)
	calls, _ := voCounts(mv.sys)
	m.layer("vo.calls_per_op", float64(calls)/n)
	m.layer("vo.pte_writes_per_op", float64(mv.pteWrites)/n)
	m.layer("pgtable.table_frames", float64(probe.frames))
	m.layer("pgtable.visit_us", probe.visitUS)
	m.layer("hw.physmem_read_ns", probe.readNS)
	mvBefore.record(m, mvAfter, n)
	m.layer("xen.hypercall_sim_cyc_p50", median(tr.simSpans("xen/hypercall")))
}

// mixOnce runs ops as one process on s; atEnd, when set, runs in that
// process after the last op.
func mixOnce(s *bench.System, ops []mixOp, tr *tracer, atEnd func(*guest.Proc)) *mixRun {
	r := &mixRun{sys: s, opCyc: make([]float64, len(ops))}
	ks := &s.K.Stats
	sys0, forks0, faults0 := ks.Syscalls.Load(), ks.Forks.Load(), ks.PageFaults.Load()
	_, pte0 := voCounts(s)
	r.span = tr.begin("guest", "run "+string(s.Key), -1, s.M.BootCPU().Now())
	r.elapsed = s.Run("kernel-mix", func(p *guest.Proc) {
		p.Syscall(func(c *hw.CPU) {
			if _, err := p.K.FS.Mkdir(c, "/mix"); err != nil {
				panic(fmt.Sprintf("mercurybench: mkdir /mix: %v", err))
			}
		})
		for i, op := range ops {
			t0 := p.CPU().Now()
			sp := tr.begin("guest", mixClasses[op.class], i, t0)
			mixStep(p, i, op)
			t1 := p.CPU().Now()
			tr.end(sp, t1)
			r.opCyc[i] = float64(t1 - t0)
		}
		if atEnd != nil {
			atEnd(p)
		}
		p.Exit(0)
	})
	tr.end(r.span, s.M.BootCPU().Now())
	r.syscalls = ks.Syscalls.Load() - sys0
	r.forks = ks.Forks.Load() - forks0
	r.faults = ks.PageFaults.Load() - faults0
	_, pte1 := voCounts(s)
	r.pteWrites = pte1 - pte0
	return r
}

// mixStep performs one op through the guest's system-call surface.
func mixStep(p *guest.Proc, i int, op mixOp) {
	switch op.class {
	case 0:
		path := fmt.Sprintf("/mix/f%d", i)
		fd, err := p.Creat(path)
		if err != nil {
			panic(fmt.Sprintf("mercurybench: creat %s: %v", path, err))
		}
		p.Write(fd, op.n)
		p.Seek(fd, 0)
		p.Read(fd, op.n)
		p.Close(fd)
		if err := p.Unlink(path); err != nil {
			panic(fmt.Sprintf("mercurybench: unlink %s: %v", path, err))
		}
	case 1:
		base := p.Mmap(op.n, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(base, op.n, true)
		p.Touch(base, op.n, false)
		p.Munmap(base)
	case 2:
		pages, work := op.n, hw.Cycles(op.work)
		p.Fork("mix-child", func(cp *guest.Proc) {
			base := cp.Mmap(pages, guest.ProtRead|guest.ProtWrite, false)
			cp.Touch(base, pages, true)
			cp.Work(work)
			cp.Munmap(base)
			cp.Exit(0)
		})
		p.Wait()
	case 3:
		p.Work(hw.Cycles(op.n))
	}
}

// tableProbe is what probeTables measured.
type tableProbe struct {
	frames          int
	readNS, visitUS float64
}

// probeTables times PhysMem.ReadWord over every word of the process's
// page-table frames, and a full pgtable.Visit of its tree.
func probeTables(p *guest.Proc, tr *tracer) tableProbe {
	pt, mem := p.AS.PT, p.K.M.Mem
	frames := pt.TableFrames()
	sp := tr.begin("hw", "physmem-read", -1, p.CPU().Now())
	readNS := readFrames(mem, frames)
	tr.end(sp, p.CPU().Now())
	sp = tr.begin("pgtable", "visit", -1, p.CPU().Now())
	var n uint32
	visitNS := hostLoop(func() { pt.Visit(func(pgtable.Mapping) bool { n++; return true }) }, 1)
	tr.end(sp, p.CPU().Now())
	return tableProbe{frames: len(frames), readNS: readNS, visitUS: visitNS / 1e3}
}

// taxPct is the percentage by which b exceeds a.
func taxPct(a, b hw.Cycles) float64 { return (float64(b)/float64(a) - 1) * 100 }
