package obs

// Collector bundles the metric registry, the span tracer, and the
// flight-recorder event log that one machine's (or one fleet's)
// instrumentation feeds.
type Collector struct {
	Registry *Registry
	Tracer   *Tracer
	Events   *EventLog
}

// New builds a collector for a machine with ncpu processors. The
// tracer's and event log's drop counts are adopted into the registry
// (obs/spans_dropped_total, obs/events_dropped_total) so every metrics
// export reports whether its traces are complete.
func New(ncpu int) *Collector {
	col := &Collector{
		Registry: NewRegistry(),
		Tracer:   NewTracer(ncpu, 0),
		Events:   NewEventLog(0),
	}
	col.Registry.RegisterCounter(col.Tracer.dropped, "obs", "spans_dropped_total")
	col.Registry.RegisterCounter(col.Events.dropped, "obs", "events_dropped_total")
	return col
}

// Begin opens a span on a possibly-nil collector; the zero SpanRef is
// returned (and every method on it is a no-op) when col is nil.
func Begin(col *Collector, cpu int, now uint64, name string) SpanRef {
	if col == nil {
		return SpanRef{}
	}
	return col.Tracer.Begin(cpu, now, name)
}
