// Package obs is the unified telemetry layer: a simulated-TSC-native
// metrics registry (counters, gauges, log-scaled cycle histograms), a
// nested span tracer that decomposes mode switches and attributes
// hypercalls/fault bounces/ring hops to their enclosing spans, and
// exporters (Prometheus-style text, JSON dumps, Chrome trace_event
// JSON) all on the same cycle timebase.
//
// The package deliberately imports nothing from the rest of the repo:
// timestamps are raw cycle counts (hw.Cycles is an alias of uint64), so
// hw can hold a *Collector without an import cycle and every other
// layer reaches telemetry through its machine.
//
// Discipline: when no collector is installed, every instrumentation
// hook in the tree must cost exactly one atomic load. Sites do
//
//	if col := m.Telemetry(); col != nil { ... }
//
// and the nil-safe helpers below (Begin, SpanRef.End) keep the
// disabled path allocation-free.
package obs
