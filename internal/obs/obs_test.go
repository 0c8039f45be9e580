package obs

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("xen", "hypercalls_total")
	b := r.Counter("xen", "hypercalls_total")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatalf("shared counter = %d", b.Load())
	}
	// Label order is immaterial.
	x := r.Counter("vo", "calls_total", L("object", "native"), L("cpu", "0"))
	y := r.Counter("vo", "calls_total", L("cpu", "0"), L("object", "native"))
	if x != y {
		t.Fatal("label order changed identity")
	}
	// Different label values are different instruments.
	z := r.Counter("vo", "calls_total", L("cpu", "1"), L("object", "native"))
	if x == z {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("a", "x")
}

func TestRegisterCounterAdoptsExisting(t *testing.T) {
	r := NewRegistry()
	free := NewCounter()
	free.Add(7)
	r.RegisterCounter(free, "vo", "calls_total", L("object", "direct"))
	if got := r.Counter("vo", "calls_total", L("object", "direct")).Load(); got != 7 {
		t.Fatalf("series = %d after adoption, want 7", got)
	}
	// The registry reads through the adopted object.
	free.Add(1)
	var seen uint64
	r.Each(func(m *Metric) {
		if m.Subsystem == "vo" {
			seen = m.counter.Load()
		}
	})
	if seen != 8 {
		t.Fatalf("registry sees %d, want 8", seen)
	}
	if free.Load() != 8 {
		t.Fatalf("adopted counter = %d, want its own 8", free.Load())
	}
}

func TestRegisterCounterSumsAdopted(t *testing.T) {
	r := NewRegistry()
	a, b := NewCounter(), NewCounter()
	a.Add(3)
	r.RegisterCounter(a, "xen", "hypercalls_total")
	r.RegisterCounter(b, "xen", "hypercalls_total")
	b.Add(4)
	series := r.Counter("xen", "hypercalls_total")
	series.Inc() // the series' own count joins the sum
	if got := series.Load(); got != 8 {
		t.Fatalf("series = %d, want 3+4+1", got)
	}
	if a.Load() != 3 || b.Load() != 4 {
		t.Fatalf("adopted counters changed: a=%d b=%d", a.Load(), b.Load())
	}
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "mercury_xen_hypercalls_total 8") {
		t.Fatalf("export does not show the sum:\n%s", sb.String())
	}
}

func TestRegisterCounterIdempotent(t *testing.T) {
	r := NewRegistry()
	c := NewCounter()
	c.Add(5)
	for i := 0; i < 3; i++ {
		r.RegisterCounter(c, "core", "attaches_total")
	}
	series := r.Counter("core", "attaches_total")
	// Adopting the series under itself must not recurse or double it.
	r.RegisterCounter(series, "core", "attaches_total")
	if got := series.Load(); got != 5 {
		t.Fatalf("series = %d after re-adoption, want 5", got)
	}
}

// TestRegisterCounterAllocLinear: adopting counter after counter under
// one series, as every domain a fork or migration run creates does,
// allocates a bounded amount per adoption, not a copy of the list so
// far.
func TestRegisterCounterAllocLinear(t *testing.T) {
	r := NewRegistry()
	const n = 4096
	cs := make([]*Counter, n)
	for i := range cs {
		cs[i] = NewCounter()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cs {
		r.RegisterCounter(c, "xen", "hypercalls_total")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Fatalf("%d bytes allocated per adoption of %d, want at most 256", per, n)
	}
	if got := len(*r.Counter("xen", "hypercalls_total").adopted.Load()); got != n {
		t.Fatalf("%d counters adopted, want %d", got, n)
	}
}

// TestRegisterCounterConcurrent increments adopted counters while new
// ones are adopted and the series is read; run it under -race. Every
// increment must be in the final sum.
func TestRegisterCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, incs = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Counter("xen", "events_sent_total").Load()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCounter()
			for i := 0; i < incs; i++ {
				c.Inc()
				if i == incs/2 {
					r.RegisterCounter(c, "xen", "events_sent_total")
				}
			}
			r.RegisterCounter(c, "xen", "events_sent_total")
		}()
	}
	wg.Wait()
	close(stop)
	if got := r.Counter("xen", "events_sent_total").Load(); got != workers*incs {
		t.Fatalf("series = %d, want %d", got, workers*incs)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("migrate", "dirty_pages")
	g.Set(12)
	g.Add(-2)
	if g.Load() != 10 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestHistogramQuantilesAndBuckets(t *testing.T) {
	h := NewHistogram()
	// 100 observations in [1000, 2000): all land in bucket 11 ([1024,2048))
	// except values < 1024 which land in bucket 10.
	for i := 0; i < 100; i++ {
		h.Observe(uint64(1000 + i*10))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1990 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Mean() < 1400 || h.Mean() > 1600 {
		t.Fatalf("mean = %f", h.Mean())
	}
	// The p99 estimate must be within the bucket ladder's factor-of-two
	// resolution and clamped to the observed max.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := h.Quantile(q)
		if est < 1000/2 || est > 1990 {
			t.Fatalf("q%.2f = %f out of range", q, est)
		}
	}
	uppers, cum := h.Buckets()
	if len(uppers) == 0 || len(uppers) != len(cum) {
		t.Fatalf("buckets: %v %v", uppers, cum)
	}
	if cum[len(cum)-1] != 100 {
		t.Fatalf("cumulative end = %d", cum[len(cum)-1])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] || uppers[i] <= uppers[i-1] {
			t.Fatal("buckets not monotone")
		}
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(0)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("all-zero quantile = %f", h.Quantile(0.5))
	}
}

func TestHistogramMaxRace(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Observe(uint64(g*1000 + i))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 3999 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("xen", "hypercalls_total").Add(5)
	r.Gauge("migrate", "dirty_pages").Set(3)
	r.Histogram("core", "attach_cycles").Observe(1500)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE mercury_xen_hypercalls_total counter",
		"mercury_xen_hypercalls_total 5",
		"# TYPE mercury_migrate_dirty_pages gauge",
		"mercury_migrate_dirty_pages 3",
		"# TYPE mercury_core_attach_cycles histogram",
		`mercury_core_attach_cycles_bucket{le="+Inf"} 1`,
		"mercury_core_attach_cycles_sum 1500",
		"mercury_core_attach_cycles_count 1",
		`mercury_core_attach_cycles_quantile{q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("xen", "hypercalls_total", L("dom", "0")).Add(2)
	r.Histogram("core", "attach_cycles").Observe(100)
	dump := r.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump has %d entries", len(dump))
	}
	var sawCounter, sawHist bool
	for _, d := range dump {
		switch d.Kind {
		case "counter":
			sawCounter = true
			if d.Value != 2 || d.Labels["dom"] != "0" {
				t.Fatalf("counter dump: %+v", d)
			}
		case "histogram":
			sawHist = true
			if d.Histogram == nil || d.Histogram.Count != 1 {
				t.Fatalf("hist dump: %+v", d)
			}
		}
	}
	if !sawCounter || !sawHist {
		t.Fatal("dump missing kinds")
	}
}

// TestRetireCounterBoundsTheList: a series that adopts an instance's
// counter at create and retires it at destroy walks only live
// instances, over 2,000 cycles, and its sum still counts every
// increment, the retired counters' included. A retired counter that
// counts on no longer moves the series.
func TestRetireCounterBoundsTheList(t *testing.T) {
	r := NewRegistry()
	series := r.Counter("xen", "hypercalls_total")
	var live []*Counter
	var model uint64
	for cycle := 0; cycle < 2000; cycle++ {
		c := NewCounter()
		r.RegisterCounter(c, "xen", "hypercalls_total")
		live = append(live, c)
		for i, c := range live {
			c.Add(uint64(i + 1))
			model += uint64(i + 1)
		}
		if cycle%3 != 0 { // the live set grows by one every third cycle
			dead := live[cycle%len(live)]
			r.RetireCounter(dead, "xen", "hypercalls_total")
			live = slices.DeleteFunc(live, func(c *Counter) bool { return c == dead })
			dead.Inc()
			r.RetireCounter(dead, "xen", "hypercalls_total") // no-op
		}
		if got := series.Load(); got != model {
			t.Fatalf("cycle %d: series = %d, model %d", cycle, got, model)
		}
		if n := len(*series.adopted.Load()); n != len(live) {
			t.Fatalf("cycle %d: %d counters adopted, %d live", cycle, n, len(live))
		}
	}
	// Retiring from a series that was never made creates nothing.
	r.RetireCounter(NewCounter(), "xen", "no_such_total")
	r.Each(func(m *Metric) {
		if m.Name == "no_such_total" {
			t.Fatal("RetireCounter created a series")
		}
	})
}
