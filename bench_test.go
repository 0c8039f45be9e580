// Package repro's top-level benchmarks regenerate the paper's evaluation
// artifacts under `go test -bench=.`: one benchmark per table and figure
// (§7, Tables 1–2, Figs. 3–4), the mode-switch timing (§7.4), and the
// frame-tracking ablation (§5.1.2). Simulated results are attached as
// custom metrics (sim_us, ratios); the Go ns/op column measures only the
// simulator's host-side speed.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/workloads"
)

// BenchmarkTable1 regenerates the uniprocessor lmbench table.
func BenchmarkTable1(b *testing.B) {
	var last bench.TableResult
	for i := 0; i < b.N; i++ {
		t, err := bench.LmbenchTable(1, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	reportTable(b, last)
}

// BenchmarkTable2 regenerates the SMP lmbench table.
func BenchmarkTable2(b *testing.B) {
	var last bench.TableResult
	for i := 0; i < b.N; i++ {
		t, err := bench.LmbenchTable(2, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	reportTable(b, last)
}

// reportTable attaches headline metrics: native fork latency, the
// Xen/native fork ratio, and the Mercury-native overhead.
func reportTable(b *testing.B, t bench.TableResult) {
	var sb strings.Builder
	bench.WriteTable(&sb, t)
	b.Log("\n" + sb.String())
	// Row 0 is Fork Process; columns follow bench.AllSystems order.
	fork := t.Values[0]
	b.ReportMetric(fork[0], "fork_NL_us")
	b.ReportMetric(fork[2]/fork[0], "fork_X0_over_NL")
	b.ReportMetric(fork[1]/fork[0], "fork_MN_over_NL")
	ctx := t.Values[3]
	b.ReportMetric(ctx[0], "ctx2p_NL_us")
	b.ReportMetric(ctx[3]/ctx[2], "ctx2p_MV_over_X0")
}

// BenchmarkFig3 regenerates the uniprocessor application figure.
func BenchmarkFig3(b *testing.B) {
	var last bench.FigureResult
	for i := 0; i < b.N; i++ {
		f, err := bench.AppFigure(1, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	reportFigure(b, last)
}

// BenchmarkFig4 regenerates the SMP application figure.
func BenchmarkFig4(b *testing.B) {
	var last bench.FigureResult
	for i := 0; i < b.N; i++ {
		f, err := bench.AppFigure(2, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	reportFigure(b, last)
}

func reportFigure(b *testing.B, f bench.FigureResult) {
	var sb strings.Builder
	bench.WriteFigure(&sb, f)
	b.Log("\n" + sb.String())
	// Headline shapes: M-N ≈ N-L, dbench domU ≥ native, iperf domU low.
	b.ReportMetric(f.Relative[0][1], "osdb_MN_rel")
	b.ReportMetric(f.Relative[0][2], "osdb_X0_rel")
	b.ReportMetric(f.Relative[1][4], "dbench_XU_rel")
	b.ReportMetric(f.Relative[4][4], "iperfTCP_XU_rel")
}

// BenchmarkModeSwitch regenerates the §7.4 switch timings (recompute
// policy, the paper's default).
func BenchmarkModeSwitch(b *testing.B) {
	var last bench.SwitchResult
	for i := 0; i < b.N; i++ {
		r, err := bench.ModeSwitchBench(10, core.TrackRecompute, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ToVirtualMicros/1000, "attach_ms")
	b.ReportMetric(last.ToNativeMicros/1000, "detach_ms")
	var sb strings.Builder
	bench.WriteSwitch(&sb, last)
	b.Log("\n" + sb.String())
}

// BenchmarkAblationTracking regenerates the §5.1.2 comparison of
// active tracking vs recompute-on-switch.
func BenchmarkAblationTracking(b *testing.B) {
	var last bench.AblationResult
	for i := 0; i < b.N; i++ {
		a, err := bench.TrackingAblation()
		if err != nil {
			b.Fatal(err)
		}
		last = a
	}
	b.ReportMetric(last.OverheadPct, "native_overhead_pct")
	b.ReportMetric(last.RecomputeAttachUS, "attach_recompute_us")
	b.ReportMetric(last.ActiveAttachUS, "attach_active_us")
	var sb strings.Builder
	bench.WriteAblation(&sb, last)
	b.Log("\n" + sb.String())
}

// BenchmarkAblationBatching regenerates the multicall batching
// comparison (DESIGN.md ablation 2).
func BenchmarkAblationBatching(b *testing.B) {
	var last bench.BatchingAblationResult
	for i := 0; i < b.N; i++ {
		r, err := bench.BatchingAblation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SpeedupFactor, "batching_speedup_x")
}

// BenchmarkAblationAddrSpace regenerates the unified-address-space
// comparison (DESIGN.md ablation 3).
func BenchmarkAblationAddrSpace(b *testing.B) {
	var last bench.AddrSpaceAblationResult
	for i := 0; i < b.N; i++ {
		r, err := bench.AddrSpaceAblation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SeparateForkUS/last.SharedForkUS, "fork_penalty_x")
}

// Targeted microbenchmarks: the two headline lmbench rows on the two
// headline systems, runnable individually.

func benchLmbenchRow(b *testing.B, key bench.SystemKey,
	pick func(workloads.LmbenchResult) float64) {
	var v float64
	for i := 0; i < b.N; i++ {
		s, err := bench.Build(key, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		v = pick(workloads.Lmbench(s.Target()))
	}
	b.ReportMetric(v, "sim_us")
}

func BenchmarkForkNative(b *testing.B) {
	benchLmbenchRow(b, bench.NL, func(r workloads.LmbenchResult) float64 { return r.ForkProc })
}

func BenchmarkForkMercuryNative(b *testing.B) {
	benchLmbenchRow(b, bench.MN, func(r workloads.LmbenchResult) float64 { return r.ForkProc })
}

func BenchmarkForkXenDom0(b *testing.B) {
	benchLmbenchRow(b, bench.X0, func(r workloads.LmbenchResult) float64 { return r.ForkProc })
}

func BenchmarkForkMercuryVirtual(b *testing.B) {
	benchLmbenchRow(b, bench.MV, func(r workloads.LmbenchResult) float64 { return r.ForkProc })
}

// BenchmarkSwitchRoundTrip measures one attach+detach pair end to end.
func BenchmarkSwitchRoundTrip(b *testing.B) {
	s, err := bench.Build(bench.MN, bench.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc := s.Mercury
	boot := s.M.BootCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.SwitchSync(boot, core.ModePartialVirtual); err != nil {
			b.Fatal(err)
		}
		if err := mc.SwitchSync(boot, core.ModeNative); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Micros(mc.Stats.LastAttachCyc.Load()), "attach_sim_us")
	b.ReportMetric(s.Micros(mc.Stats.LastDetachCyc.Load()), "detach_sim_us")
}

// BenchmarkDbenchThroughput reports the dbench score on N-L and X-U,
// the pair whose inversion (domU beating native) the paper highlights.
func BenchmarkDbenchThroughput(b *testing.B) {
	for _, key := range []bench.SystemKey{bench.NL, bench.XU} {
		key := key
		b.Run(string(key), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				s, err := bench.Build(key, bench.Options{})
				if err != nil {
					b.Fatal(err)
				}
				mbps = workloads.Dbench(s.Target()).MBps
			}
			b.ReportMetric(mbps, "sim_MBps")
		})
	}
}

// BenchmarkGuestFork isolates the simulator's own speed on the hottest
// guest path (host-side performance, not a paper artifact).
func BenchmarkGuestFork(b *testing.B) {
	s, err := bench.Build(bench.NL, bench.Options{})
	if err != nil {
		b.Fatal(err)
	}
	boot := s.M.BootCPU()
	s.K.Spawn(boot, "bench", guest.DefaultImage("bench"), func(p *guest.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Fork("c", func(cp *guest.Proc) { cp.Exit(0) })
			p.Wait()
		}
		b.StopTimer()
	})
	s.K.Run(boot)
}
