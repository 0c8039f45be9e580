package divergence

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
)

// The committed BENCH_divergence.json is the run of Config{}: seed 42,
// 300 operations.
const (
	DefaultSeed = 42
	DefaultOps  = 300
)

// Config shapes one observatory run.
type Config struct {
	// Seed feeds the workload generator (default DefaultSeed).
	Seed int64
	// Ops is the workload length (default DefaultOps).
	Ops int
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Ops == 0 {
		c.Ops = DefaultOps
	}
}

// probe is everything the observatory reads off one system after its
// workload run.
type probe struct {
	elapsed uint64

	// Kernel-level logical counts.
	syscalls, forks, ctxSwitches, pageFaults, ticks uint64

	// Hardware-level counts, summed over CPUs.
	interrupts, cr3Writes, tlbFlushes, tlbMisses uint64

	// Virtualization-object traffic (summed across object instances).
	voCalls, voPTEWrites uint64

	// VMM interactions (zero on N-L, where no VMM exists).
	hypercalls, mmuUpdates, faultBounces uint64
	multicalls, multicallOps             uint64

	// Interrupt-delivery latency tail (cycles from LAPIC post / timer
	// deadline to guest handler entry).
	irqP50, irqP99 float64
}

// capture reads every probe off a finished system.
func capture(s *bench.System, col *obs.Collector, elapsed uint64) probe {
	p := probe{elapsed: elapsed}
	ks := &s.K.Stats
	p.syscalls = ks.Syscalls.Load()
	p.forks = ks.Forks.Load()
	p.ctxSwitches = ks.CtxSwitches.Load()
	p.pageFaults = ks.PageFaults.Load()
	p.ticks = ks.Ticks.Load()
	for _, c := range s.M.CPUs {
		p.interrupts += c.Stats.Interrupts
		p.cr3Writes += c.Stats.CR3Writes
		p.tlbFlushes += c.TLB.Flushes
		p.tlbMisses += c.TLB.Misses
	}
	col.Registry.Each(func(m *obs.Metric) {
		if m.Subsystem != "vo" || m.Kind != obs.KindCounter {
			return
		}
		switch m.Name {
		case "calls_total":
			p.voCalls += col.Registry.Counter(m.Subsystem, m.Name, m.Labels...).Load()
		case "pte_writes_total":
			p.voPTEWrites += col.Registry.Counter(m.Subsystem, m.Name, m.Labels...).Load()
		}
	})
	if s.Dom != nil {
		p.hypercalls = s.Dom.Stats.Hypercalls.Load()
		p.mmuUpdates = s.Dom.Stats.MMUUpdates.Load()
		p.faultBounces = s.Dom.Stats.FaultBounces.Load()
		p.multicalls = s.Dom.Stats.Multicalls.Load()
		p.multicallOps = s.Dom.Stats.MulticallOps.Load()
	}
	irq := col.Registry.Histogram("hw", "irq_delivery_cycles")
	p.irqP50 = irq.Quantile(0.50)
	p.irqP99 = irq.Quantile(0.99)
	return p
}

// runSystem builds one configuration with its own collector, runs the
// workload, and captures the probes.
func runSystem(key bench.SystemKey, cfg Config) (probe, error) {
	col := obs.New(1)
	sys, err := bench.Build(key, bench.Options{
		Collector: col,
		Policy:    core.TrackRecompute,
		// Batching on: the observatory proves the lazy-MMU multicall
		// path stays logically transparent (exact counts still match).
		LazyMMU: true,
	})
	if err != nil {
		return probe{}, fmt.Errorf("divergence: building %s: %w", key, err)
	}
	w := Workload{Seed: cfg.Seed, Ops: cfg.Ops}
	elapsed := sys.Run("divergence", w.Body())
	return capture(sys, col, uint64(elapsed)), nil
}

// Run executes the full observatory: the three workload runs, the row
// synthesis, and the mode-switch probes for both tracking policies.
func Run(cfg Config) (*Report, error) {
	cfg.fill()

	nl, err := runSystem(bench.NL, cfg)
	if err != nil {
		return nil, err
	}
	mn, err := runSystem(bench.MN, cfg)
	if err != nil {
		return nil, err
	}
	mv, err := runSystem(bench.MV, cfg)
	if err != nil {
		return nil, err
	}

	rep := &Report{Schema: ReportSchema, Seed: cfg.Seed, Ops: cfg.Ops}
	rep.Rows = buildRows(nl, mn, mv)
	rep.NativeTaxPct = taxPct(nl.elapsed, mn.elapsed)
	rep.VirtualTaxPct = taxPct(nl.elapsed, mv.elapsed)

	for _, pol := range []core.TrackingPolicy{core.TrackRecompute, core.TrackJournal} {
		sp, err := switchProbe(pol, cfg)
		if err != nil {
			return nil, err
		}
		rep.Switches = append(rep.Switches, sp)
	}
	return rep, nil
}

// buildRows synthesizes the transparency table from the three probes.
// Exact rows are logical counts the seed fully determines; the rest are
// time-derived.
func buildRows(nl, mn, mv probe) []Row {
	row := func(metric string, exact bool, a, b, c uint64) Row {
		return Row{
			Metric: metric, Exact: exact,
			NL: a, MN: b, MV: c,
			MNTaxPct: taxPct(a, b), MVTaxPct: taxPct(a, c),
		}
	}
	return []Row{
		row("workload_cycles", false, nl.elapsed, mn.elapsed, mv.elapsed),
		row("kernel/syscalls", true, nl.syscalls, mn.syscalls, mv.syscalls),
		row("kernel/forks", true, nl.forks, mn.forks, mv.forks),
		row("kernel/page_faults", true, nl.pageFaults, mn.pageFaults, mv.pageFaults),
		row("kernel/ctx_switches", false, nl.ctxSwitches, mn.ctxSwitches, mv.ctxSwitches),
		row("kernel/timer_ticks", false, nl.ticks, mn.ticks, mv.ticks),
		row("hw/interrupts", false, nl.interrupts, mn.interrupts, mv.interrupts),
		row("hw/cr3_writes", false, nl.cr3Writes, mn.cr3Writes, mv.cr3Writes),
		row("hw/tlb_flushes", false, nl.tlbFlushes, mn.tlbFlushes, mv.tlbFlushes),
		row("hw/tlb_misses", false, nl.tlbMisses, mn.tlbMisses, mv.tlbMisses),
		row("vo/calls", false, nl.voCalls, mn.voCalls, mv.voCalls),
		row("vo/pte_writes", true, nl.voPTEWrites, mn.voPTEWrites, mv.voPTEWrites),
		row("xen/hypercalls", false, nl.hypercalls, mn.hypercalls, mv.hypercalls),
		row("xen/mmu_updates", true, nl.mmuUpdates, mn.mmuUpdates, mv.mmuUpdates),
		row("xen/fault_bounces", true, nl.faultBounces, mn.faultBounces, mv.faultBounces),
		row("xen/multicalls", true, nl.multicalls, mn.multicalls, mv.multicalls),
		row("xen/multicall_ops", true, nl.multicallOps, mn.multicallOps, mv.multicallOps),
		row("hw/irq_p50_cycles", false,
			uint64(nl.irqP50), uint64(mn.irqP50), uint64(mv.irqP50)),
		row("hw/irq_p99_cycles", false,
			uint64(nl.irqP99), uint64(mn.irqP99), uint64(mv.irqP99)),
	}
}

// The switch probe's load: probeResidents processes of
// probeResidentPages faulted pages each stay resident across both round
// trips, so every attach has real page-table trees to validate, and
// probeTogglePages of the probe's own region get a protection toggle
// between the round trips, so the journal's re-attach has real slots to
// replay.
const (
	probeResidents     = 10
	probeResidentPages = 100
	probeTogglePages   = 32
)

// switchProbe decomposes two attach/detach round trips under a tracking
// policy: run half the workload native; then, in a process holding the
// residents, attach, run the other half virtual in a child, detach,
// toggle the protection of a small region natively, and attach and
// detach again; finally run a third stretch native. The switch spans,
// TLB activity and journal statistics are read off the trace.
func switchProbe(pol core.TrackingPolicy, cfg Config) (SwitchProbe, error) {
	col := obs.New(1)
	sys, err := bench.Build(bench.MN, bench.Options{
		Collector: col,
		Policy:    pol,
		LazyMMU:   true,
	})
	if err != nil {
		return SwitchProbe{}, fmt.Errorf("divergence: building M-N (%s): %w", pol, err)
	}
	mc := sys.Mercury
	half := cfg.Ops / 2

	sys.Run("div-pre", Workload{Seed: cfg.Seed, Ops: half}.Body())
	sp := SwitchProbe{Policy: pol.String()}
	var switchErr error
	sys.Run("div-switch", func(p *guest.Proc) {
		release := bench.Residents(p, probeResidents, func(rp *guest.Proc) {
			base := rp.Mmap(probeResidentPages, guest.ProtRead|guest.ProtWrite, true)
			rp.Touch(base, probeResidentPages, true)
		})
		defer release()
		toggle := p.Mmap(probeTogglePages, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(toggle, probeTogglePages, true)
		c := p.CPU()
		flushes0 := c.TLB.Flushes
		switchTo := func(what string, m core.Mode) bool {
			if err := mc.SwitchSync(c, m); err != nil {
				switchErr = fmt.Errorf("divergence: %s (%s): %w", what, pol, err)
				return false
			}
			return true
		}
		// Round trip 1: a cold attach (full validation) and the detach
		// that arms the dirty-frame journal.
		if !switchTo("attach", core.ModePartialVirtual) {
			return
		}
		p.Fork("div-virtual", Workload{Seed: cfg.Seed + 1, Ops: cfg.Ops - half}.Body())
		p.Wait()
		if !switchTo("detach", core.ModeNative) {
			return
		}
		// A light native episode: rewrite the leaf entries of the small
		// region (no structural change). Round trip 2 then re-attaches:
		// the journal policy replays the toggled slots while recompute
		// pays full price again — the cost asymmetry the probe exists
		// to show.
		p.Mprotect(toggle, guest.ProtRead)
		p.Mprotect(toggle, guest.ProtRead|guest.ProtWrite)
		if !switchTo("re-attach", core.ModePartialVirtual) ||
			!switchTo("re-detach", core.ModeNative) {
			return
		}
		// The window's TLB flushes and journal activity are read here,
		// before the residents exit and the last stretch runs.
		sp.TLBFlushes = c.TLB.Flushes - flushes0
		if j := mc.VMM.Journal(); j != nil {
			js := j.StatsSnapshot()
			sp.Journal = &JournalSummary{
				Appends:     js.Appends,
				Replays:     js.Replays,
				ReplaySlots: js.ReplaySlots,
				Fallbacks:   js.Fallbacks,
				Overflows:   js.Overflows,
			}
		}
	})
	if switchErr != nil {
		return SwitchProbe{}, switchErr
	}
	sys.Run("div-post", Workload{Seed: cfg.Seed + 2, Ops: half}.Body())

	spans := col.Tracer.Spans()
	var n int
	sp.AttachPhases, sp.AttachCyc, n = phases(spans, "switch/attach")
	sp.Attaches = n
	sp.DetachPhases, sp.DetachCyc, n = phases(spans, "switch/detach")
	sp.Detaches = n
	return sp, nil
}

// phases adapts bench.PhaseBreakdown to the report's phase rows.
func phases(spans []obs.Span, root string) ([]SwitchPhase, uint64, int) {
	ps, total, n := bench.PhaseBreakdown(spans, root)
	out := make([]SwitchPhase, 0, len(ps))
	for _, p := range ps {
		out = append(out, SwitchPhase{Name: p.Name, Cyc: p.TotalCyc})
	}
	return out, total, n
}

// taxPct is the percentage slowdown (or inflation) of b over a.
func taxPct(a, b uint64) float64 {
	if a == 0 {
		return 0
	}
	return (float64(b) - float64(a)) / float64(a) * 100
}
