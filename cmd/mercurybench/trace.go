package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
)

// span is one call the benchmark made into a layer, timed on both
// clocks: host wall time since the unit started, and the simulated TSC
// of the machine the call ran on (0 when the call has no machine clock
// at hand).
type span struct {
	Parent       int
	Layer, Name  string
	Op           int // op index inside the unit; -1 for set-up and probes
	Host0, Host1 time.Duration
	Sim0, Sim1   hw.Cycles
}

// tracer keeps one unit's spans in memory until the unit ends, plus the
// simulator collectors the unit installed. A nil *tracer records
// nothing: untraced runs pay one nil check per wrapped call.
type tracer struct {
	start time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	cols  []namedCollector
}

type namedCollector struct {
	name string
	col  *obs.Collector
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span nested under the innermost open one and returns
// its index for end.
func (t *tracer) begin(layer, name string, op int, sim hw.Cycles) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Parent: parent, Layer: layer, Name: name, Op: op,
		Host0: time.Since(t.start), Sim0: sim})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int, sim hw.Cycles) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("mercurybench: span %d ended out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].Host1 = time.Since(t.start)
	t.spans[id].Sim1 = sim
}

// collector returns a fresh simulator collector registered under name,
// or nil on an untraced run. Its tracer and event log are sized so that
// a full unit drops nothing; the drop counts are reported regardless.
func (t *tracer) collector(name string) *obs.Collector {
	if t == nil {
		return nil
	}
	col := &obs.Collector{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(1, 1<<21),
		Events:   obs.NewEventLog(1 << 16),
	}
	t.cols = append(t.cols, namedCollector{name, col})
	return col
}

// hostDurs returns the host durations, in microseconds, of the spans
// named name whose parent is parent (any parent when parent < 0).
func (t *tracer) hostDurs(parent int, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (parent < 0 || s.Parent == parent) {
			out = append(out, float64(s.Host1-s.Host0)/1e3)
		}
	}
	return out
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part their direct children cover. Children nest inside
// their parent and never overlap, so the self times of all layers sum
// to the root span's duration.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		d := s.Host1 - s.Host0
		self[s.Layer] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Layer] -= d
		}
	}
	return self
}

// simSpans returns the durations, in cycles, of every simulator span
// named name across the unit's collectors.
func (t *tracer) simSpans(name string) []float64 {
	var out []float64
	for _, nc := range t.cols {
		for _, s := range nc.col.Tracer.Spans() {
			if s.Name == name {
				out = append(out, float64(s.Dur()))
			}
		}
	}
	return out
}

// dropped sums the span and event drops of the unit's collectors.
func (t *tracer) dropped() (spans, events uint64) {
	for _, nc := range t.cols {
		spans += nc.col.Tracer.Dropped()
		events += nc.col.Events.Dropped()
	}
	return spans, events
}

// chromeEvent is one Trace Event Format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeFiles writes the unit's trace as Chrome trace_event JSON — the
// benchmark's spans on the host clock as process 1, each collector's
// simulator spans on the simulated clock as processes 2.. — and the
// collectors' registry dumps beside it.
func (t *tracer) writeFiles(dir, unit string) error {
	base := filepath.Join(dir, strings.ReplaceAll(unit, "/", "-"))
	hostUS := func(d time.Duration) float64 { return float64(d) / 1e3 }
	meta := func(pid int, name string) chromeEvent {
		return chromeEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name}}
	}
	evs := []chromeEvent{meta(1, "mercurybench "+unit+" (host clock)")}
	for i, s := range t.spans {
		d := hostUS(s.Host1 - s.Host0)
		evs = append(evs, chromeEvent{Name: s.Layer + "/" + s.Name, Ph: "X", TS: hostUS(s.Host0),
			Dur: &d, PID: 1, Args: map[string]any{"span_id": i, "parent": s.Parent,
				"op": s.Op, "sim_start_cycles": s.Sim0, "sim_end_cycles": s.Sim1}})
	}
	dumps := make(map[string][]obs.MetricDump)
	for i, nc := range t.cols {
		pid := 2 + i
		evs = append(evs, meta(pid, "simulator "+nc.name+" (simulated clock)"))
		for _, s := range nc.col.Tracer.Spans() {
			ev := chromeEvent{Name: s.Name, Ph: "i", TS: us(hw.Cycles(s.Start)), PID: pid, TID: s.CPU,
				Args: map[string]any{"span_id": s.ID, "parent": s.Parent, "cycles": s.Dur()}}
			if s.Kind() == obs.SpanDur {
				d := us(hw.Cycles(s.Dur()))
				ev.Ph, ev.Dur = "X", &d
			}
			evs = append(evs, ev)
		}
		dumps[nc.name] = nc.col.Registry.Dump()
	}
	if err := writeJSON(base+".trace.json",
		map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return writeJSON(base+".metrics.json", dumps)
}

// writeJSON writes v as JSON to path.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
