package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// shrink sets every workload to a size that runs in a fraction of a
// second under the race detector and returns the function that restores
// the full sizes.
func shrink() (restore func()) {
	ints := []*int{&mixOps, &switchTrips, &switchProcs, &switchPages, &switchCheckEvery,
		&ioBursts, &ioRequests, &forkRounds, &forkClones, &forkPages}
	saved := make([]int, len(ints))
	for i, p := range ints {
		saved[i] = *p
	}
	rungs := ioRungs
	mixOps, switchTrips, switchProcs, switchPages, switchCheckEvery = 40, 4, 2, 16, 2
	ioBursts, ioRequests, ioRungs = 2, 60, []int{ioFixedRate, 195}
	forkRounds, forkClones, forkPages = 1, 4, 32
	return func() {
		for i, p := range ints {
			*p = saved[i]
		}
		ioRungs = rungs
	}
}

// TestWorkloadsInProcess runs every unit of every workload at a tiny
// size, untraced and traced: each must pass its own checks, report its
// simulated results identically both times, account for its whole root
// span in per-layer self times, and write a valid Chrome trace.
func TestWorkloadsInProcess(t *testing.T) {
	defer shrink()()
	for _, w := range allWorkloads {
		untraced := &repResult{sim: map[string]float64{}}
		for _, u := range w.units() {
			plain, err := runUnitHere(u, 3, false, "")
			if err != nil {
				t.Fatalf("%s: %v", u.name, err)
			}
			dir := t.TempDir()
			traced, err := runUnitHere(u, 3, true, dir)
			if err != nil {
				t.Fatalf("%s traced: %v", u.name, err)
			}
			chrome, err := os.ReadFile(filepath.Join(dir, strings.ReplaceAll(u.name, "/", "-")+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChromeTrace(chrome); err != nil {
				t.Errorf("%s: %v", u.name, err)
			}
			for _, res := range []*unitResult{plain, traced} {
				if len(res.Failed) > 0 {
					t.Errorf("%s: checks failed: %v", u.name, res.Failed)
				}
				if res.HostS <= 0 || res.Ops != u.ops {
					t.Errorf("%s: host %v s for %d ops, want a timed phase over %d", u.name, res.HostS, res.Ops, u.ops)
				}
			}
			if !reflect.DeepEqual(plain.Sim, traced.Sim) {
				t.Errorf("%s: traced simulated results %v differ from untraced %v", u.name, traced.Sim, plain.Sim)
			}
			var self float64
			for k, v := range traced.Layer {
				if strings.HasSuffix(k, ".self_host_ms") {
					self += v
				}
			}
			if math.Abs(self-traced.RootMS) > 0.01*traced.RootMS {
				t.Errorf("%s: layer self times sum to %.3f ms, root span is %.3f ms", u.name, self, traced.RootMS)
			}
			if traced.Layer["obs.spans_dropped"] != 0 || traced.Layer["obs.events_dropped"] != 0 {
				t.Errorf("%s: the traced unit dropped spans or events", u.name)
			}
			for k, v := range plain.Sim {
				untraced.sim[k] = v
			}
		}
		if w.finish != nil {
			w.finish(untraced)
		}
		for _, name := range []string{"sim_op_p50_us", "sim_op_p99_us"} {
			if v, ok := untraced.sim[name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive simulated latency", w.name, name, v)
			}
		}
	}
}

// TestHelperProcess is not a test: it is the child process the tests
// below launch in place of the benchmark binary.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("MERCURYBENCH_HELPER") != "1" {
		t.Skip("child process for the other tests")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	fs := flag.NewFlagSet("helper", flag.ExitOnError)
	unitName := fs.String("unit", "", "")
	seed := fs.Int64("seed", 1, "")
	trace := fs.Int("trace", 0, "")
	fs.String("trace-dir", "", "")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	switch *unitName {
	case "fake/ok":
		out, _ := json.Marshal(unitResult{Ops: 10, HostS: 1, Sim: map[string]float64{"x": 1}})
		fmt.Println(string(out))
		os.Exit(0)
	case "fake/panic":
		panic("helper unit panics")
	case "fake/sleep":
		time.Sleep(time.Hour)
	case "fake/deadlock":
		// Every goroutine blocks, so the runtime reports a deadlock.
		<-make(chan struct{})
	}
	shrink()
	os.Exit(unitMain(*unitName, *seed, *trace == 1, ""))
}

// helperConfig runs units in TestHelperProcess children.
func helperConfig(seed int64) *config {
	return &config{seed: seed, deadline: 60 * time.Second,
		self: []string{os.Args[0], "-test.run=^TestHelperProcess$", "--"},
		env:  []string{"MERCURYBENCH_HELPER=1"}}
}

// TestSeedReachesKernelMix drives kernel-mix through the child-process
// path: -seed must reach the op-stream generator, and one seed must
// give bit-identical simulated results in separate processes.
func TestSeedReachesKernelMix(t *testing.T) {
	run := func(seed int64) map[string]float64 {
		r := runRep(kernelMix, helperConfig(seed), false)
		if r.failedOps != 0 {
			t.Fatalf("seed %d: %v", seed, r.failures)
		}
		return r.sim
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 gave %v, then %v", a, b)
	}
	if a["virtual_tax_pct"] == c["virtual_tax_pct"] {
		t.Errorf("seeds 1 and 2 gave the same virtual tax %v: the seed does not reach the generator", a["virtual_tax_pct"])
	}
}

// TestMetricsMatchBenchmarkJSON checks that a real run emits exactly the
// workloads, metric names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}

	cfg := helperConfig(5)
	cfg.trace = true
	wr := runWorkload(kernelMix, cfg)
	if !wr.correct() || wr.Reps != minReps {
		t.Fatalf("kernel-mix: %d reps, failures %v", wr.Reps, wr.Failures)
	}
	for _, c := range []struct {
		traced bool
		want   []metric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		line := result([]*workloadReport{wr}, c.traced)
		if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
			t.Errorf("traced=%v: result line %+v", c.traced, line)
		}
		if len(line.Metrics) != len(c.want) {
			t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", c.traced, len(line.Metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := line.Metrics[m.Name]
			if !ok || got["unit"] != m.Unit {
				t.Errorf("traced=%v: %s emitted as %v, BENCHMARK.json says unit %q", c.traced, m.Name, got, m.Unit)
			}
		}
	}
	for i, m := range spec.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end_to_end[%d] is %+v in BENCHMARK.json, %+v in the code", i, m, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if i >= len(perLayer) || m != perLayer[i] {
			t.Errorf("per_layer[%d] is %+v in BENCHMARK.json", i, m)
		}
	}
}

// TestFailedUnitsFailAlone runs a rep whose units panic, hang and
// deadlock beside one that succeeds: each broken unit's ops count as
// failed with the reason recorded, and the good unit still reports.
func TestFailedUnitsFailAlone(t *testing.T) {
	fake := &workload{name: "fake", units: func() []unit {
		var us []unit
		for i, name := range []string{"ok", "panic", "sleep", "deadlock"} {
			us = append(us, unit{name: "fake/" + name, ops: 10 << i})
		}
		return us
	}}
	cfg := helperConfig(1)
	cfg.deadline = 3 * time.Second
	r := runRep(fake, cfg, false)
	if r.ops != 150 || r.failedOps != 140 {
		t.Errorf("%d of %d ops failed, want 140 of 150", r.failedOps, r.ops)
	}
	if r.sim["x"] != 1 {
		t.Errorf("the good unit's results are missing: %v", r.sim)
	}
	// Each failure must name its unit and carry the reason. Built with
	// -race, the runtime does not report the deadlock, so that child runs
	// into the deadline instead.
	want := [][]string{
		{"fake/panic: ", "panic: helper unit panics"},
		{"fake/sleep: ", "deadline 3s exceeded"},
		{"fake/deadlock: ", "fatal error: all goroutines are asleep|deadline 3s exceeded"},
	}
	if len(r.failures) != len(want) {
		t.Fatalf("failures %q, want %d", r.failures, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(r.failures[i], w[0]) || !regexp.MustCompile(w[1]).MatchString(r.failures[i]) {
			t.Errorf("failure %q, want %q naming %q", r.failures[i], w[0], w[1])
		}
	}
}
