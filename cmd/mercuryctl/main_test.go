package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mercuryctl runs one invocation in-process and returns its output.
func mercuryctl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestSubcommands runs every subcommand with small parameters and
// checks the lines that carry its verdict.
func TestSubcommands(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	cases := []struct {
		name string // subtest name; the joined args when empty
		args []string
		want []string
	}{
		{"", []string{"stats"}, []string{
			"mercury_core_attaches_total 1\n",
			"mercury_core_attach_cycles_quantile{q=\"0.99\"} ",
			"mercury_vo_calls_total{object=\"virtual\"} ",
		}},
		{"", []string{"stats", "-tracking", "journal"}, []string{"mercury_core_attaches_total 1\n"}},
		{"trace -o t.json", []string{"trace", "-o", tracePath}, []string{
			"wrote " + tracePath + ": 21 spans (0 over budget)\n",
		}},
		{"", []string{"chaos", "-seed", "3", "-episodes", "4"}, []string{
			"seed 3: 4 episodes, 4 injected, 4 detected, 4 healed, 0 missed, 0 rolled back, 0 starved, 0 escalated",
			" timer-loss=1 ", " frametable-bitflip=1 ", " io-ring-stall=0 io-doorbell-lost=2\n",
			"3 fault classes; switch stats: attaches=1 detaches=1 deferred=0 starved=0 failed=0\n",
		}},
		{"", []string{"chaos", "-seed", "3", "-episodes", "4", "-cpus", "2"}, []string{
			"seed 3: 4 episodes, 4 injected, 4 detected, 4 healed, 0 missed, 0 rolled back, 0 starved, 0 escalated, MTTR 0.0 us",
		}},
		{"", []string{"fleet", "-nodes", "2"}, []string{
			"fleet: 2 nodes, MaxVirtual=1 (tax 15%, max capacity loss 10%), action=checkpoint\n",
			"wave: completed=2 expired=0 canceled=0 ticks=4 aborted=false\n",
			"admission: submitted=2 granted=2 rejected=0 expired=0 max_in_use=1/1 max_queue=1\n",
		}},
		{"", []string{"fleet", "-nodes", "2", "-action", "migrate"}, []string{
			"action=migrate\n",
			"wave: completed=2 expired=0 canceled=0 ticks=4 aborted=false\n",
		}},
		{"", []string{"fleet", "-nodes", "3", "-action", "top", "-interval", "4"}, []string{
			"tick     4  virtual 0/3 ",
			"     2 node2    native           serving ",
		}},
		{"", []string{"events", "-nodes", "2", "-kind", "mode-switch"}, []string{
			"     2   193344      0 mode-switch                   1        10226\n",
			"4 shown of 12 retained (12 recorded, 0 dropped by ring wrap)\n",
		}},
		{"", []string{"fork", "-clones", "4", "-pages", "16", "-dirty", "2"}, []string{
			"forked 4 clones: ",
			"refcount audit and content verification clean\n",
			"destroyed the fleet: store back to 18 frames, 18 refs (base image retained)\n",
		}},
		{"", []string{"io", "-queues", "2", "-requests", "200"}, []string{
			"M-N native: 200 requests, ",
			"exactly-once: 200 submitted, 200 completed, 0 duplicated, 0 lost; final mode native\n",
		}},
		{"", []string{"mc"}, []string{
			"verdict: race-free (state graph closed: 8009 states, 33396 transitions, ",
		}},
	}
	for _, tc := range cases {
		// The trace case names its file, not the per-run temp dir, so
		// the subtest keeps one name from run to run.
		name := tc.name
		if name == "" {
			name = strings.Join(tc.args, " ")
		}
		t.Run(name, func(t *testing.T) {
			out, err := mercuryctl(t, tc.args...)
			if err != nil {
				t.Fatalf("error: %v\n%s", err, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}

	// The trace file is Chrome trace_event JSON with the attach span.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	attach := false
	for _, e := range trace.TraceEvents {
		attach = attach || e.Name == "switch/attach"
	}
	if !attach {
		t.Errorf("trace has no switch/attach span among %d events", len(trace.TraceEvents))
	}
}

// TestTelemetryGolden pins the whole output of the commands that export
// the metrics registry, byte for byte, against testdata/*.golden: every
// series keeps its name and its value wherever its counter lives. It
// pins the fork demo's report the same way: its cycle counts, store
// frames and references.
func TestTelemetryGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"stats.golden", []string{"stats"}},
		{"stats_journal.golden", []string{"stats", "-tracking", "journal"}},
		{"fleet_migrate.golden", []string{"fleet", "-nodes", "2", "-action", "migrate"}},
		{"fork.golden", []string{"fork", "-clones", "4", "-pages", "16", "-dirty", "2"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out, err := mercuryctl(t, tc.args...)
			if err != nil {
				t.Fatalf("error: %v\n%s", err, out)
			}
			if out == string(want) {
				return
			}
			got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(got), len(exp)) {
				if got[i] != exp[i] {
					t.Fatalf("line %d differs from testdata/%s:\n got %q\nwant %q", i+1, tc.golden, got[i], exp[i])
				}
			}
			t.Fatalf("%d lines, testdata/%s has %d", len(got), tc.golden, len(exp))
		})
	}
}

func TestChaosSameSeedSameBytes(t *testing.T) {
	a, err := mercuryctl(t, "chaos", "-seed", "5", "-episodes", "4")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mercuryctl(t, "chaos", "-seed", "5", "-episodes", "4")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two runs of seed 5 differ:\n%s\n---\n%s", a, b)
	}
}

// TestMCExpect checks the exit-status contract CI relies on: each
// seeded bug's violation matches -expect with its known minimal
// counterexample, any other -expect fails, and -trace prints the
// replayed counterexample step by step.
func TestMCExpect(t *testing.T) {
	for _, tc := range []struct {
		bug, vio, verdict string
		steps             int
	}{
		{"toctou", "commit-with-refcount-held",
			"verdict: VIOLATION commit-with-refcount-held (22 states explored, minimal counterexample 6 steps, ", 6},
		{"rendezvous", "commit-with-ap-unparked",
			"verdict: VIOLATION commit-with-ap-unparked (5 states explored, minimal counterexample 5 steps, ", 5},
	} {
		out, err := mercuryctl(t, "mc", "-seed-bug", tc.bug, "-expect", tc.vio, "-trace")
		if err != nil {
			t.Fatalf("%s: expected verdict reported as failure: %v\n%s", tc.bug, err, out)
		}
		if !strings.Contains(out, tc.verdict) {
			t.Errorf("%s: unexpected verdict:\n%s", tc.bug, out)
		}
		want := []string{"replay: counterexample verified", "    boot: mode=native",
			"violation: " + tc.vio + "\n"}
		for i := 1; i <= tc.steps; i++ {
			want = append(want, fmt.Sprintf("\n%4d  ", i))
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: -trace output lacks %q:\n%s", tc.bug, w, out)
			}
		}
		if strings.Contains(out, fmt.Sprintf("\n%4d  ", tc.steps+1)) || strings.Contains(out, "event seq=") {
			t.Errorf("%s: -trace prints more than the %d steps:\n%s", tc.bug, tc.steps, out)
		}
	}
	if _, err := mercuryctl(t, "mc", "-seed-bug", "toctou", "-expect", "commit-with-ap-unparked"); err == nil {
		t.Error("a verdict other than -expect was not an error")
	}
}

// TestMCJSONNames: -json names the seeded bug and the verdict, once
// each, rather than printing their ordinals.
func TestMCJSONNames(t *testing.T) {
	out, err := mercuryctl(t, "mc", "-seed-bug", "rendezvous", "-json", "-expect", "commit-with-ap-unparked")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	cfg, _ := got["config"].(map[string]any)
	if cfg["Bug"] != "rendezvous" {
		t.Errorf("config.Bug = %#v, want \"rendezvous\"", cfg["Bug"])
	}
	if got["violation"] != "commit-with-ap-unparked" {
		t.Errorf("violation = %#v, want \"commit-with-ap-unparked\"", got["violation"])
	}
	if _, ok := got["violation_name"]; ok {
		t.Error("violation is printed twice: violation_name is still present")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,                              // no subcommand
		{"bogus"},                        // unknown subcommand
		{"fork", "-nodes", "5"},          // another subcommand's flag
		{"stats", "-tracking", "journl"}, // unknown policy
		{"fork", "extra"},                // stray argument
		{"io", "-writes", "150"},         // a write share over 100%
	} {
		if _, err := mercuryctl(t, args...); err == nil {
			t.Errorf("mercuryctl %q: no error", args)
		}
	}
	_, err := mercuryctl(t)
	if err == nil || !strings.Contains(err.Error(), "chaos, events, fleet, fork, io, mc, stats, trace") {
		t.Errorf("no-subcommand error does not list the subcommands: %v", err)
	}
}
