package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. It is a free-standing
// atomic so subsystems can count unconditionally into their own Stats;
// a registry series adopts those counters (RegisterCounter) and reports
// their sum — one counting path per fact, however many instances of a
// subsystem share the collector.
type Counter struct {
	v atomic.Uint64
	// adopted lists the counters linked under this one. Each adoption
	// publishes a new slice header, so Load never takes a lock while
	// CPUs increment; the backing array grows in place, because a
	// published header never covers the slot an adoption writes.
	adopted atomic.Pointer[[]*Counter]
}

// NewCounter returns an unregistered counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the counter's own count plus the Load of every counter
// adopted under it.
func (c *Counter) Load() uint64 {
	n := c.v.Load()
	if p := c.adopted.Load(); p != nil {
		for _, a := range *p {
			n += a.Load()
		}
	}
	return n
}

// adopt links a under c. Adopting c itself or an already linked
// counter is a no-op. The caller orders adoptions and retirements under
// one series (RegisterCounter and RetireCounter hold its registry's
// lock), so a domain built per clone or migration costs one slot, not
// a copy of the whole list.
func (c *Counter) adopt(a *Counter) {
	var list []*Counter
	if p := c.adopted.Load(); p != nil {
		list = *p
	}
	if a == c || slices.Contains(list, a) {
		return
	}
	list = append(list, a)
	c.adopted.Store(&list)
}

// retire unlinks a from c and adds a's count to c's own, so c's Load is
// unchanged once a stops counting and no later Load walks a. Retiring
// a counter not linked under c is a no-op. The list is copied, never
// edited in place: a Load may still be walking the published one.
func (c *Counter) retire(a *Counter) {
	p := c.adopted.Load()
	if p == nil {
		return
	}
	i := slices.Index(*p, a)
	if i < 0 {
		return
	}
	list := slices.Delete(slices.Clone(*p), i, i+1)
	c.adopted.Store(&list)
	c.v.Add(a.Load())
}

// Gauge is an instantaneous signed value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MetricKind discriminates registry entries.
type MetricKind uint8

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Metric is one registered instrument with its identity.
type Metric struct {
	Subsystem string
	Name      string
	Labels    []Label // sorted by key
	Kind      MetricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry keys instruments by subsystem/name{labels} and hands out
// get-or-create handles. Lookups take a read lock; sites on hot paths
// should cache the returned handle.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*Metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*Metric)}
}

// key canonicalizes an instrument identity.
func key(subsystem, name string, labels []Label) string {
	if len(labels) == 0 {
		return subsystem + "/" + name
	}
	var b strings.Builder
	b.WriteString(subsystem)
	b.WriteByte('/')
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedLabels returns a copy of labels sorted by key, so call-site
// order is immaterial.
func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// lookup returns the metric for an identity, creating it with mk on
// first use. Labels are sorted by key so call-site order is immaterial.
func (r *Registry) lookup(subsystem, name string, labels []Label,
	kind MetricKind, mk func(*Metric)) *Metric {
	ls := sortedLabels(labels)
	k := key(subsystem, name, ls)

	r.mu.RLock()
	m := r.metrics[k]
	r.mu.RUnlock()
	if m != nil {
		if m.Kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", k, m.Kind, kind))
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[k]; m != nil {
		if m.Kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", k, m.Kind, kind))
		}
		return m
	}
	m = &Metric{Subsystem: subsystem, Name: name, Labels: ls, Kind: kind}
	mk(m)
	r.metrics[k] = m
	return m
}

// Counter returns the counter for subsystem/name{labels}, creating it
// on first use.
func (r *Registry) Counter(subsystem, name string, labels ...Label) *Counter {
	return r.lookup(subsystem, name, labels, KindCounter,
		func(m *Metric) { m.counter = NewCounter() }).counter
}

// Gauge returns the gauge for subsystem/name{labels}.
func (r *Registry) Gauge(subsystem, name string, labels ...Label) *Gauge {
	return r.lookup(subsystem, name, labels, KindGauge,
		func(m *Metric) { m.gauge = NewGauge() }).gauge
}

// Histogram returns the log-scaled cycle histogram for
// subsystem/name{labels}.
func (r *Registry) Histogram(subsystem, name string, labels ...Label) *Histogram {
	return r.lookup(subsystem, name, labels, KindHistogram,
		func(m *Metric) { m.hist = NewHistogram() }).hist
}

// RegisterCounter adopts c under subsystem/name{labels}: from now on
// the series' Load (and every export) includes c's count. A subsystem
// counts into its own per-instance counter; every instance built on
// this collector adopts its counter under the same identity, so each
// keeps its own count while the series reports their sum. Adopting
// the same c twice is a no-op.
func (r *Registry) RegisterCounter(c *Counter, subsystem, name string, labels ...Label) {
	series := r.Counter(subsystem, name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	series.adopt(c)
}

// RetireCounter unlinks c from subsystem/name{labels} and adds c's
// count to the series' own: the series' sum stays exact once c stops
// counting, and no later Load or export walks c. A subsystem retires
// the counters of an instance it tears down, so a series walks only
// live instances. Retiring a counter the series never adopted, or
// from a series that does not exist, is a no-op.
func (r *Registry) RetireCounter(c *Counter, subsystem, name string, labels ...Label) {
	k := key(subsystem, name, sortedLabels(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[k]; m != nil && m.Kind == KindCounter {
		m.counter.retire(c)
	}
}

// Each calls fn for every registered metric in sorted key order.
func (r *Registry) Each(fn func(m *Metric)) {
	r.mu.RLock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	ms := make([]*Metric, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		ms = append(ms, r.metrics[k])
	}
	r.mu.RUnlock()
	for _, m := range ms {
		fn(m)
	}
}
