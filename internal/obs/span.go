package obs

import "sync"

// SpanKind discriminates trace records.
type SpanKind uint8

// Span kinds.
const (
	// SpanDur is a duration span: [Start, End) on one CPU's TSC.
	SpanDur SpanKind = iota
	// SpanInstant is a point event attached to the enclosing span.
	SpanInstant
)

// Span is one finished trace record. Timestamps are raw cycles on the
// owning CPU's clock (the simulated TSC), the same timebase as the
// metrics registry's cycle histograms.
type Span struct {
	ID     uint64
	Parent uint64 // 0 = top-level
	Name   string
	CPU    int
	Start  uint64
	End    uint64
	Arg    uint64
}

// Kind reports whether the span is a duration or an instant.
func (s Span) Kind() SpanKind {
	if s.End == s.Start {
		return SpanInstant
	}
	return SpanDur
}

// Dur returns the span's length in cycles.
func (s Span) Dur() uint64 { return s.End - s.Start }

// openSpan is an in-flight span on a CPU's nesting stack.
type openSpan struct {
	id, parent uint64
	name       string
	start      uint64
}

// DefaultTraceSpans bounds the retained finished spans.
const DefaultTraceSpans = 1 << 17

// Tracer records nested, cycle-timestamped spans. A per-CPU stack of
// open spans provides the nesting: Begin parents the new span under
// the CPU's current top, so a hypercall completing inside an attach
// phase is attributed to that phase without the call sites knowing
// about each other.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	spans  []Span
	stacks [][]openSpan
	max    int
	// dropped is a free-standing counter so a collector can adopt it
	// into its registry (obs/spans_dropped_total): a truncated trace is
	// then visible in every metrics export, not just to callers who
	// think to ask Dropped().
	dropped *Counter
}

// NewTracer builds a tracer for ncpu processors retaining at most max
// finished spans (0 = DefaultTraceSpans).
func NewTracer(ncpu, max int) *Tracer {
	if ncpu <= 0 {
		ncpu = 1
	}
	if max <= 0 {
		max = DefaultTraceSpans
	}
	return &Tracer{stacks: make([][]openSpan, ncpu), max: max, dropped: NewCounter()}
}

// SpanRef is a handle to an open span. The zero SpanRef (from a nil
// collector) is inert: End on it is a no-op.
type SpanRef struct {
	t   *Tracer
	cpu int
	id  uint64
}

// Active reports whether the handle refers to a real span.
func (s SpanRef) Active() bool { return s.t != nil }

// Begin opens a span on cpu at the given TSC reading. The span is
// parented under the CPU's current open span, if any.
func (t *Tracer) Begin(cpu int, now uint64, name string) SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.growLocked(cpu)
	t.nextID++
	id := t.nextID
	var parent uint64
	if st := t.stacks[cpu]; len(st) > 0 {
		parent = st[len(st)-1].id
	}
	t.stacks[cpu] = append(t.stacks[cpu], openSpan{id: id, parent: parent, name: name, start: now})
	return SpanRef{t: t, cpu: cpu, id: id}
}

// End closes the span at the given TSC reading. Unclosed children
// still on the stack above it are closed at the same instant (the
// rollback paths bail out of a phase without unwinding spans one by
// one).
func (s SpanRef) End(now uint64) { s.EndArg(now, 0) }

// EndArg closes the span, attaching an argument word.
func (s SpanRef) EndArg(now uint64, arg uint64) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[s.cpu]
	for i := len(st) - 1; i >= 0; i-- {
		o := st[i]
		a := uint64(0)
		if o.id == s.id {
			a = arg
		}
		t.finishLocked(Span{ID: o.id, Parent: o.parent, Name: o.name,
			CPU: s.cpu, Start: o.start, End: now, Arg: a})
		if o.id == s.id {
			t.stacks[s.cpu] = st[:i]
			return
		}
	}
	t.stacks[s.cpu] = st[:0]
}

// Complete records an already-measured [start, end) interval as a span
// parented under cpu's current open span — the shape hypercall and
// ring-hop instrumentation uses (measure first, record on exit).
func (t *Tracer) Complete(cpu int, start, end uint64, name string, arg uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.growLocked(cpu)
	t.nextID++
	var parent uint64
	if st := t.stacks[cpu]; len(st) > 0 {
		parent = st[len(st)-1].id
	}
	t.finishLocked(Span{ID: t.nextID, Parent: parent, Name: name,
		CPU: cpu, Start: start, End: end, Arg: arg})
}

// Instant records a point event under cpu's current open span.
func (t *Tracer) Instant(cpu int, now uint64, name string, arg uint64) {
	t.Complete(cpu, now, now, name, arg)
}

// finishLocked appends a finished span, dropping when over budget.
func (t *Tracer) finishLocked(s Span) {
	if len(t.spans) >= t.max {
		t.dropped.Inc()
		return
	}
	t.spans = append(t.spans, s)
}

// growLocked widens the per-CPU stacks on first sight of a larger id.
func (t *Tracer) growLocked(cpu int) {
	for cpu >= len(t.stacks) {
		t.stacks = append(t.stacks, nil)
	}
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many finished spans were discarded once the
// retention budget filled.
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// Reset discards all finished spans (open stacks are kept).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.dropped.v.Store(0)
}
