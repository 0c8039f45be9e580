package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Reproduction-band assertions: these tests pin the *shape* of the
// paper's evaluation — who wins, by roughly what factor — so a
// regression in any subsystem's cost accounting shows up as a test
// failure, not just a drifted table.

// ratio helpers.
func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f, want within [%.2f, %.2f]", name, got, lo, hi)
	}
}

func TestTable1ReproductionBands(t *testing.T) {
	tb, err := LmbenchTable(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := map[SystemKey]int{}
	for i, k := range tb.Columns {
		col[k] = i
	}
	row := map[string]int{}
	for i, r := range tb.Rows {
		row[r] = i
	}
	v := func(r string, k SystemKey) float64 { return tb.Values[row[r]][col[k]] }

	// Mercury native tracks native Linux (paper: fork 1.16x, others less).
	for _, r := range tb.Rows {
		within(t, r+" M-N/N-L", v(r, MN)/v(r, NL), 0.98, 1.25)
	}
	// Mercury virtual tracks Xen dom0; hosted domU tracks Xen domU.
	for _, r := range tb.Rows {
		within(t, r+" M-V/X-0", v(r, MV)/v(r, X0), 0.95, 1.08)
		within(t, r+" M-U/X-U", v(r, MU)/v(r, XU), 0.95, 1.08)
	}
	// Virtualization ratios land in the paper's neighborhood.
	within(t, "fork X-0/N-L", v("Fork Process", X0)/v("Fork Process", NL), 3.5, 6.5)
	within(t, "exec X-0/N-L", v("Exec Process", X0)/v("Exec Process", NL), 2.3, 4.3)
	within(t, "sh X-0/N-L", v("Sh Process", X0)/v("Sh Process", NL), 1.8, 3.5)
	within(t, "ctx2p X-0/N-L", v("Ctx (2p/0k)", X0)/v("Ctx (2p/0k)", NL), 2.2, 4.0)
	within(t, "mmap X-0/N-L", v("Mmap LT", X0)/v("Mmap LT", NL), 1.8, 3.5)
	within(t, "prot X-0/N-L", v("Prot Fault", X0)/v("Prot Fault", NL), 1.3, 2.0)
	within(t, "pf X-0/N-L", v("Page Fault", X0)/v("Page Fault", NL), 1.7, 3.2)
	// Working-set dilution: the 64k ctx ratio is the smallest ctx ratio.
	r64 := v("Ctx (16p/64k)", X0) / v("Ctx (16p/64k)", NL)
	r0 := v("Ctx (2p/0k)", X0) / v("Ctx (2p/0k)", NL)
	if r64 >= r0 {
		t.Errorf("64k ctx ratio (%.2f) not diluted below 0k ratio (%.2f)", r64, r0)
	}
	// Native absolute values stay near the calibration targets.
	within(t, "fork N-L us", v("Fork Process", NL), 80, 140)
	within(t, "mmap N-L us", v("Mmap LT", NL), 2800, 4800)
	within(t, "pf N-L us", v("Page Fault", NL), 0.9, 1.8)
}

func TestTable2SMPInflation(t *testing.T) {
	t1, err := LmbenchTable(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := LmbenchTable(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// SMP inflates native rows (paper: +20–45 %), and the virtualized
	// columns inflate by a smaller relative factor.
	for i, r := range t1.Rows {
		nl := t2.Values[i][0] / t1.Values[i][0]
		within(t, r+" SMP/UP N-L", nl, 1.0, 1.6)
		x0 := t2.Values[i][2] / t1.Values[i][2]
		if x0 > nl+0.15 {
			t.Errorf("%s: X-0 inflated more than N-L (%.2f vs %.2f)", r, x0, nl)
		}
	}
}

func TestFig3ReproductionBands(t *testing.T) {
	f, err := AppFigure(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, b := range f.Benchmarks {
		idx[b] = i
	}
	sys := map[SystemKey]int{}
	for i, s := range f.Systems {
		sys[s] = i
	}
	rel := func(b string, k SystemKey) float64 { return f.Relative[idx[b]][sys[k]] }

	// Mercury adds nothing on top of the mode it runs in.
	for _, b := range f.Benchmarks {
		within(t, b+" M-N", rel(b, MN), 0.98, 1.02)
		within(t, b+" M-V/X-0", rel(b, MV)/rel(b, X0), 0.97, 1.03)
		within(t, b+" M-U/X-U", rel(b, MU)/rel(b, XU), 0.97, 1.03)
	}
	// OSDB-IR loses >20 % under virtualization (paper's claim).
	within(t, "OSDB X-0", rel("OSDB-IR", X0), 0.6, 0.82)
	// dbench: domU above native (the §7.3 anomaly, from the driver
	// domain's write-behind cache). The paper has it slightly above; the
	// split datapath maps grants once per merged run and the model
	// charges the driver domain nothing per cached block, so it lands
	// near 1.2.
	within(t, "dbench X-U", rel("dbench", XU), 1.00, 1.25)
	// Kernel build loses ~9 % (we land 9–15 %).
	within(t, "kbuild X-0", rel("kernel-build", X0), 0.82, 0.95)
	// Ping: dom0 loses >15 %, domU loses more than dom0.
	within(t, "ping X-0", rel("ping", X0), 0.70, 0.88)
	if rel("ping", XU) >= rel("ping", X0) {
		t.Errorf("ping: domU (%.2f) not worse than dom0 (%.2f)",
			rel("ping", XU), rel("ping", X0))
	}
	// Iperf: domU loses ~60–70 %.
	within(t, "iperf-TCP X-U", rel("iperf-TCP", XU), 0.25, 0.50)
	within(t, "iperf-UDP X-U", rel("iperf-UDP", XU), 0.25, 0.50)
	if rel("iperf-UDP", X0) <= rel("iperf-UDP", XU) {
		t.Error("iperf: dom0 not better than domU")
	}
}

func TestModeSwitchReproductionBands(t *testing.T) {
	r, err := ModeSwitchBench(10, core.TrackRecompute, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~0.22 ms attach, ~0.06 ms detach. Allow a generous band.
	within(t, "attach ms", r.ToVirtualMicros/1000, 0.10, 0.40)
	within(t, "detach ms", r.ToNativeMicros/1000, 0.02, 0.12)
	if r.ToNativeMicros >= r.ToVirtualMicros {
		t.Error("detach not cheaper than attach")
	}
	if r.FixedFrames == 0 {
		t.Error("selector fixup never ran under load")
	}
}

// TestModeSwitchBenchRejectsZeroSamples: the mean over no samples is
// undefined, so the bench refuses instead of dividing by zero.
func TestModeSwitchBenchRejectsZeroSamples(t *testing.T) {
	if _, err := ModeSwitchBench(0, core.TrackRecompute, Options{}); err == nil {
		t.Fatal("ModeSwitchBench(0) returned no error")
	}
}

func TestAblationReproductionBands(t *testing.T) {
	a, err := TrackingAblation()
	if err != nil {
		t.Fatal(err)
	}
	within(t, "active-tracking native overhead %", a.OverheadPct, 1.0, 5.0)
	if a.ActiveAttachUS >= a.RecomputeAttachUS {
		t.Error("active tracking did not shorten the attach")
	}
}

// TestLmbenchDeterministicUP: the UP simulation is fully deterministic.
func TestLmbenchDeterministicUP(t *testing.T) {
	run := func() workloads.LmbenchResult {
		s, err := Build(NL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return workloads.Lmbench(s.Target())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("UP runs differ:\n%+v\n%+v", a, b)
	}
}

func TestFig4ReproductionBands(t *testing.T) {
	f, err := AppFigure(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, b := range f.Benchmarks {
		idx[b] = i
	}
	sys := map[SystemKey]int{}
	for i, s := range f.Systems {
		sys[s] = i
	}
	rel := func(b string, k SystemKey) float64 { return f.Relative[idx[b]][sys[k]] }

	// §7.3: "the overhead in Mercury in the three modes is less than 2%
	// compared to native Linux, domain0 and domainU accordingly".
	for _, b := range f.Benchmarks {
		within(t, b+" SMP M-N", rel(b, MN), 0.98, 1.02)
		within(t, b+" SMP M-V/X-0", rel(b, MV)/rel(b, X0), 0.98, 1.02)
		within(t, b+" SMP M-U/X-U", rel(b, MU)/rel(b, XU), 0.98, 1.02)
	}
	// The virtualization losses persist under SMP.
	within(t, "SMP OSDB X-0", rel("OSDB-IR", X0), 0.6, 0.85)
	within(t, "SMP kbuild X-0", rel("kernel-build", X0), 0.8, 0.95)
	if rel("iperf-UDP", XU) >= rel("iperf-UDP", X0) {
		t.Error("SMP iperf: domU not worse than dom0")
	}
}
