package core

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
)

// newMercuryObs builds a Mercury system with a telemetry collector
// installed before construction, so boot-time instrumentation (the vo
// adapters) registers into it.
func newMercuryObs(t *testing.T, ncpu int) (*Mercury, *obs.Collector) {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: ncpu})
	col := obs.New(ncpu)
	m.SetTelemetry(col)
	mc, err := New(Config{Machine: m, Policy: TrackRecompute})
	if err != nil {
		t.Fatal(err)
	}
	return mc, col
}

// phaseSums walks a trace for successful roots named rootName and
// returns the summed root duration plus the summed duration of their
// direct child phase spans.
func phaseSums(spans []obs.Span, rootName string) (rootTotal, phaseTotal uint64, rootCount int) {
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == rootName && s.Arg == 0 && s.Kind() == obs.SpanDur {
			roots[s.ID] = true
			rootTotal += s.Dur()
			rootCount++
		}
	}
	for _, s := range spans {
		if roots[s.Parent] && s.Kind() == obs.SpanDur {
			phaseTotal += s.Dur()
		}
	}
	return rootTotal, phaseTotal, rootCount
}

// TestSwitchSpanDecomposition is the acceptance check for the span
// tracer: the per-phase breakdown of every mode switch must sum to the
// end-to-end switch time within 1%, in both directions, UP and SMP.
func TestSwitchSpanDecomposition(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		mc, col := newMercuryObs(t, ncpu)
		c := mc.M.BootCPU()
		if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
			t.Fatal(err)
		}
		if err := mc.SwitchSync(c, ModeNative); err != nil {
			t.Fatal(err)
		}
		spans := col.Tracer.Spans()

		for _, tc := range []struct {
			root string
			last uint64
		}{
			{"switch/attach", mc.Stats.LastAttachCyc.Load()},
			{"switch/detach", mc.Stats.LastDetachCyc.Load()},
		} {
			rootTotal, phaseTotal, n := phaseSums(spans, tc.root)
			if n != 1 {
				t.Fatalf("ncpu=%d %s: %d roots", ncpu, tc.root, n)
			}
			// The root opens at the instant the switch's cycle
			// accounting starts, so it must agree with Stats exactly.
			if rootTotal != tc.last {
				t.Fatalf("ncpu=%d %s: root %d cycles, stats %d",
					ncpu, tc.root, rootTotal, tc.last)
			}
			if phaseTotal == 0 {
				t.Fatalf("ncpu=%d %s: no phase spans", ncpu, tc.root)
			}
			diff := float64(rootTotal) - float64(phaseTotal)
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.01*float64(rootTotal) {
				t.Fatalf("ncpu=%d %s: phases %d vs root %d (%.2f%% apart)",
					ncpu, tc.root, phaseTotal, rootTotal,
					diff/float64(rootTotal)*100)
			}
		}

		// The ordered attach phases of §5.1.3 all appear.
		byName := map[string]int{}
		for _, s := range spans {
			byName[s.Name]++
		}
		for _, want := range []string{
			"phase/state-reload", "phase/frame-recompute",
			"phase/segment-pl-flip", "phase/interrupt-rebind",
			"phase/vo-relocate", "phase/frame-release",
			"switch/rendezvous-gather", "switch/rendezvous-release",
		} {
			if byName[want] == 0 {
				t.Fatalf("ncpu=%d: no %s span", ncpu, want)
			}
		}
		if ncpu > 1 && byName["switch/ap-rendezvous"] == 0 {
			t.Fatal("SMP switch recorded no AP rendezvous spans")
		}

		// The same switches feed the metrics side.
		attCyc := col.Registry.Histogram("core", "attach_cycles")
		detCyc := col.Registry.Histogram("core", "detach_cycles")
		if attCyc.Count() != 1 || detCyc.Count() != 1 {
			t.Fatalf("ncpu=%d: hist counts %d/%d", ncpu, attCyc.Count(), detCyc.Count())
		}
		if attCyc.Sum() != mc.Stats.LastAttachCyc.Load() {
			t.Fatalf("ncpu=%d: attach hist sum %d, stats %d",
				ncpu, attCyc.Sum(), mc.Stats.LastAttachCyc.Load())
		}
		if got := col.Registry.Counter("core", "attaches_total").Load(); got != 1 {
			t.Fatalf("ncpu=%d: attaches counter = %d", ncpu, got)
		}
	}
}

// TestSwitchSpansDisabledPath: with no collector installed, switching
// must record nothing and allocate no tracer state.
func TestSwitchSpansDisabledPath(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
	if mc.M.Telemetry() != nil {
		t.Fatal("collector appeared out of nowhere")
	}
	// Stats still work without telemetry (the pre-existing path).
	if mc.Stats.Attaches.Load() != 1 || mc.Stats.Detaches.Load() != 1 {
		t.Fatal("switch stats missing without collector")
	}
}

// TestDeferredSwitchInstant: a switch deferred by the commit gate
// leaves an instant marker, and only the eventual committed switch
// opens a root span.
func TestDeferredSwitchInstant(t *testing.T) {
	mc, col := newMercuryObs(t, 1)
	c := mc.M.BootCPU()
	// Deliver the switch ISR in the middle of a VO operation (nonzero
	// refcount), the same probe idiom as TestSwitchDefersDuringVOOp.
	mc.K.IDT.Set(hw.VecDebug, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(cc *hw.CPU, f *hw.TrapFrame) {
			if mc.K.VO().Refs() != 0 {
				mc.modeSwitchISR(cc, f)
			}
		}})
	mc.pending.Store(int32(ModePartialVirtual))
	c.LAPIC.Post(nil, hw.VecDebug)
	table := mc.K.Frames.Alloc()
	mc.K.VO().WritePTE(c, table, 0, hw.MakePTE(5, hw.PTEPresent))
	if mc.Stats.Deferred.Load() == 0 {
		t.Fatal("switch was not deferred")
	}
	c.IdleUntil(func() bool { return mc.Mode() == ModePartialVirtual })

	var deferred, roots int
	for _, s := range col.Tracer.Spans() {
		switch s.Name {
		case "switch/deferred":
			deferred++
			if s.Kind() != obs.SpanInstant {
				t.Fatal("deferred marker is not an instant")
			}
		case "switch/attach":
			roots++
		}
	}
	if deferred == 0 {
		t.Fatal("no deferred instant recorded")
	}
	if roots != 1 {
		t.Fatalf("%d attach roots, want 1 (the committed retry)", roots)
	}
}

// BenchmarkSwitchRoundTrip measures an attach/detach pair; the NoTel
// variant is the disabled path every deployment without a collector
// runs, the Tel variant carries the full span + metric instrumentation.
func BenchmarkSwitchRoundTrip(b *testing.B) {
	run := func(b *testing.B, tel bool) {
		m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: 1})
		if tel {
			m.SetTelemetry(obs.New(1))
		}
		mc, err := New(Config{Machine: m, Policy: TrackRecompute})
		if err != nil {
			b.Fatal(err)
		}
		c := mc.M.BootCPU()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
				b.Fatal(err)
			}
			if err := mc.SwitchSync(c, ModeNative); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("NoTelemetry", func(b *testing.B) { run(b, false) })
	b.Run("Telemetry", func(b *testing.B) { run(b, true) })
}

// TestSwitchRoundTripAllocs: once warmed, an attach/detach round trip
// over live address spaces and sleeping processes allocates nothing.
// The switch reuses its buffers for the live roots, the sleeping
// processes, the trap gates and the rebind multicall, and the attach
// restores the frame table the detach kept.
func TestSwitchRoundTripAllocs(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()
	const residents = 3
	allocs := -1.0
	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		hold, ready := k.NewPipe(), k.NewPipe()
		for range residents {
			p.Fork("resident", func(rp *guest.Proc) {
				base := rp.Mmap(16, guest.ProtRead|guest.ProtWrite, true)
				rp.Touch(base, 16, true)
				rp.PipeWrite(ready, 1)
				rp.PipeRead(hold, 1)
				rp.Exit(0)
			})
		}
		p.PipeRead(ready, residents)
		base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 8, true)
		trip := func() {
			if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
				panic(err)
			}
			if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
				panic(err)
			}
		}
		for range 3 {
			trip()
		}
		allocs = testing.AllocsPerRun(20, trip)
		p.PipeWrite(hold, residents)
		for range residents {
			p.Wait()
		}
	})
	k.Run(boot)
	if mc.Stats.FixedFrames.Load() == 0 {
		t.Fatal("no sleeping process had a selector to fix up")
	}
	if allocs != 0 {
		t.Fatalf("a warmed switch round trip made %.1f allocations, want 0", allocs)
	}
}
