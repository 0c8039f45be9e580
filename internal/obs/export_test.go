package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(2, 0)
	root := tr.Begin(0, 3_000_000, "switch/attach")
	child := tr.Begin(0, 3_100_000, "phase/frame-recompute")
	child.End(3_500_000)
	tr.Instant(0, 3_600_000, "switch/deferred", 1)
	root.EndArg(3_900_000, 0)
	tr.Complete(1, 100, 200, "xen/hypercall", 2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, 3_000_000_000, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	// The exporter's own output must satisfy the schema checker.
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("round trip failed validation: %v", err)
	}

	var parsed struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("got %d events", len(parsed.TraceEvents))
	}
	var sawComplete, sawInstant bool
	for _, ev := range parsed.TraceEvents {
		switch ev["name"] {
		case "switch/attach":
			sawComplete = true
			if ev["ph"] != "X" {
				t.Fatalf("attach ph = %v", ev["ph"])
			}
			// 900k cycles at 3 GHz = 300 us.
			if d := ev["dur"].(float64); d < 299.9 || d > 300.1 {
				t.Fatalf("attach dur = %v us", d)
			}
			if ev["tid"].(float64) != 0 {
				t.Fatalf("attach tid = %v", ev["tid"])
			}
		case "switch/deferred":
			sawInstant = true
			if ev["ph"] != "i" {
				t.Fatalf("instant ph = %v", ev["ph"])
			}
		}
	}
	if !sawComplete || !sawInstant {
		t.Fatal("missing event kinds in export")
	}
}

func TestChromeTraceNeedsFrequency(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, 0, nil); err == nil {
		t.Fatal("hz=0 accepted")
	}
}

func TestValidateChromeTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":      `{]`,
		"no events":     `{"foo": 1}`,
		"missing name":  `{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":0,"dur":1}]}`,
		"unknown phase": `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"a","ph":"i","ts":-5,"pid":1,"tid":0}]}`,
		"missing pid":   `{"traceEvents":[{"name":"a","ph":"i","ts":1,"tid":0}]}`,
		"X without dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":0}]}`,
	}
	for label, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Fatalf("%s: accepted", label)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":0,"dur":0}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestPromNameMangling(t *testing.T) {
	r := NewRegistry()
	r.Counter("xen", "dom-switches.per/cpu").Inc()
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), "mercury_xen_dom_switches_per_cpu 1") {
		t.Fatalf("mangling: %s", sb.String())
	}
}
