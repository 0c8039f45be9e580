package obs

import (
	"encoding/json"
	"fmt"
	"sync"
)

// The fleet flight recorder: a bounded, allocation-free ring of
// structured events. Mode transitions, admission decisions, wave
// outcomes, heal verdicts and migration commits are facts about *when*
// something happened and *to whom* — the metrics registry aggregates
// them away and the span tracer is too heavy to leave enabled on a
// 50-node fleet. The event log keeps the last EventLogCap such facts
// with fixed-size records (no strings, no per-record allocation), so
// recording on the switch hot path costs a mutex acquire and a slot
// store. When the ring is full the oldest record is overwritten and the
// loss is counted, never blocking the writer.

// EventKind classifies a flight-recorder record: a fact about a
// running node or about the fleet controller.
type EventKind uint8

// Event kinds. A and B carry kind-specific payloads, documented per
// kind; TS is cycles on the recording CPU's clock for node-level events
// and fleet ticks for controller-level events.
const (
	// EvModeSwitch: a committed mode switch. A = target Mode,
	// B = switch duration in cycles.
	EvModeSwitch EventKind = iota + 1
	// EvSwitchDeferred: a switch postponed by a non-zero VO refcount.
	// A = target Mode, B = deferral count for the pending request.
	EvSwitchDeferred
	// EvSwitchStarved: a switch abandoned after exhausting its retry
	// budget. A = target Mode, B = deferral count.
	EvSwitchStarved
	// EvSwitchFailed: a switch rolled back (failure-resistant path).
	// A = target Mode.
	EvSwitchFailed
	// EvAdmissionGrant: a node won a virtual-mode slot. A = ticks waited.
	EvAdmissionGrant
	// EvAdmissionReject: backpressure — the admission queue was full.
	EvAdmissionReject
	// EvAdmissionExpire: a queued request passed its deadline.
	// A = ticks waited.
	EvAdmissionExpire
	// EvWaveStart: a rolling-maintenance wave began. A = fleet size,
	// B = batch size.
	EvWaveStart
	// EvWaveDone: the wave completed. A = nodes completed, B = ticks.
	EvWaveDone
	// EvWaveAbort: the wave aborted. A = batch index.
	EvWaveAbort
	// EvHealOK: a node's post-maintenance heal verified clean.
	EvHealOK
	// EvHealFail: the heal step failed; the wave aborts on this node.
	EvHealFail
	// EvMigrationCommit: a live migration committed. A = downtime cycles.
	EvMigrationCommit
	// EvMigrationRollback: a live migration aborted and rolled back.
	EvMigrationRollback
	// EvCheckpointDone: a checkpoint action completed. A = image pages.
	EvCheckpointDone
	// EvSwitchBackoff: a deferred switch armed its retry timer.
	// A = chosen backoff delay in cycles (exponential with seeded
	// jitter), B = deferral count for the pending request.
	EvSwitchBackoff
)

// evKindLast is the highest assigned kind, the ParseEventKind bound —
// keep it on the final constant when adding kinds.
const evKindLast = EvSwitchBackoff

func (k EventKind) String() string {
	switch k {
	case EvModeSwitch:
		return "mode-switch"
	case EvSwitchDeferred:
		return "switch-deferred"
	case EvSwitchStarved:
		return "switch-starved"
	case EvSwitchFailed:
		return "switch-failed"
	case EvAdmissionGrant:
		return "admission-grant"
	case EvAdmissionReject:
		return "admission-reject"
	case EvAdmissionExpire:
		return "admission-expire"
	case EvWaveStart:
		return "wave-start"
	case EvWaveDone:
		return "wave-done"
	case EvWaveAbort:
		return "wave-abort"
	case EvHealOK:
		return "heal-ok"
	case EvHealFail:
		return "heal-fail"
	case EvMigrationCommit:
		return "migration-commit"
	case EvMigrationRollback:
		return "migration-rollback"
	case EvCheckpointDone:
		return "checkpoint-done"
	case EvSwitchBackoff:
		return "switch-backoff"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// ParseEventKind maps a CLI spelling back to a kind.
func ParseEventKind(s string) (EventKind, error) {
	for k := EvModeSwitch; k <= evKindLast; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON emits the kind's CLI spelling rather than its ordinal, so
// exported event dumps stay readable and stable across kind insertions.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the CLI spelling.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseEventKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Event is one fixed-size flight-recorder record.
type Event struct {
	// Seq is the record's position in the total emission order; gaps
	// never occur (overwritten records keep their sequence numbers, the
	// ring just no longer holds them).
	Seq uint64 `json:"seq"`
	// TS is the recording timebase: CPU cycles for node events, fleet
	// ticks for controller events.
	TS uint64 `json:"ts"`
	// Node attributes the event to a fleet node; -1 = no node (a
	// standalone system, or a fleet-level event).
	Node int32     `json:"node"`
	Kind EventKind `json:"kind"`
	A    uint64    `json:"a"`
	B    uint64    `json:"b"`
}

// EventLogCap is the default ring capacity.
const EventLogCap = 4096

// EventLog is the bounded ring. Record is safe for concurrent use and
// never blocks beyond the internal mutex; when the ring is full the
// oldest record is overwritten and dropped is counted.
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest retained record
	n       int    // retained records
	seq     uint64 // total records ever emitted
	dropped *Counter
}

// NewEventLog builds a ring holding cap records (0 = EventLogCap).
func NewEventLog(cap int) *EventLog {
	if cap <= 0 {
		cap = EventLogCap
	}
	return &EventLog{buf: make([]Event, cap), dropped: NewCounter()}
}

// Record appends one event, overwriting the oldest when full.
func (l *EventLog) Record(kind EventKind, node int32, ts, a, b uint64) {
	l.mu.Lock()
	e := Event{Seq: l.seq, TS: ts, Node: node, Kind: kind, A: a, B: b}
	l.seq++
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		l.dropped.Inc()
	}
	l.mu.Unlock()
}

// Snapshot returns the retained records in emission order. The ring is
// left intact (the flight recorder keeps flying).
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// Len returns how many records the ring currently retains.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns how many records were ever emitted.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many records were overwritten before any
// Snapshot could return them.
func (l *EventLog) Dropped() uint64 { return l.dropped.Load() }

// Reset discards all retained records and zeroes the counters.
func (l *EventLog) Reset() {
	l.mu.Lock()
	l.start, l.n, l.seq = 0, 0, 0
	l.dropped.v.Store(0)
	l.mu.Unlock()
}
