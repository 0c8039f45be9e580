// Command mercurybench measures the Mercury reproduction on both of its
// clocks: the simulated TSC that produces the paper's numbers, and the
// host, whose CPU time says how fast the simulator itself runs.
//
//	mercurybench [-workload W] [-seed 1] [-seconds 10] [-trace 0|1] [-trace-dir dir] [-json out.json]
//
// Each workload runs as reps of fixed size, each rep in its own child
// process under a deadline, until -seconds of timed host work have been
// measured (at least three reps). Host metrics are medians over reps;
// simulated metrics are exact and must repeat in every rep. With
// -trace 1 one more rep runs with the benchmark's spans and the
// simulator's collectors installed, and the per-layer metrics come from
// it. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is 0
// only when every check held and no op failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// A workload is a fixed-size rep of work, split into the units its
// child processes run.
type workload struct {
	name string
	// shape states the rep's size and loop type for the report.
	shape string
	units func() []unit
	// run executes one unit inside a child process.
	run func(u unit, seed int64, m *meter)
	// finish, when set, derives rep-level results from the merged units.
	finish func(r *repResult)
}

// allWorkloads lists the workloads in the order they run.
var allWorkloads = []*workload{kernelMix, switchCycle, ioServe, forkClone}

// single returns a workload's only unit; ops reads the workload's
// current size.
func single(w *workload, ops func() int) func() []unit {
	return func() []unit { return []unit{{workload: w, name: w.name, ops: ops()}} }
}

// minReps is the fewest reps a workload's medians are taken over.
const minReps = 3

// workloadBudget caps one workload's untraced reps, so a run ends even
// when units keep hanging up to their deadline; -seconds is capped
// below it.
const (
	workloadBudget = 150 * time.Second
	maxSeconds     = 120
)

// config is the parent's run configuration.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// self is the command that runs one unit in a child: the benchmark
	// binary itself, or a test binary's helper.
	self     []string
	env      []string
	deadline time.Duration
}

// repResult merges the units of one rep.
type repResult struct {
	ops, failedOps int
	setupS, cpuS   float64
	hostS          float64
	allocB         uint64
	rootMS         float64
	sim, layer     map[string]float64
	failures       []string
}

// runRep runs every unit of one rep in its own child, one at a time.
func runRep(w *workload, cfg *config, traced bool) *repResult {
	r := &repResult{sim: map[string]float64{}, layer: map[string]float64{}}
	for _, u := range w.units() {
		trace := "0"
		if traced {
			trace = "1"
		}
		argv := append(append([]string(nil), cfg.self...),
			"-unit", u.name, "-seed", fmt.Sprint(cfg.seed), "-trace", trace)
		if traced && cfg.traceDir != "" {
			argv = append(argv, "-trace-dir", cfg.traceDir)
		}
		r.ops += u.ops
		res, err := runChild(argv, cfg.env, cfg.deadline)
		if err != nil {
			r.failedOps += u.ops
			r.failures = append(r.failures, u.name+": "+err.Error())
			continue
		}
		if len(res.Failed) > 0 {
			r.failedOps += u.ops
			for _, f := range res.Failed {
				r.failures = append(r.failures, u.name+": "+f)
			}
			continue
		}
		r.setupS += res.SetupS
		r.cpuS += res.CPUS
		r.hostS += res.HostS
		r.allocB += res.AllocB
		r.rootMS += res.RootMS
		for k, v := range res.Sim {
			r.sim[k] = v
		}
		for k, v := range res.Layer {
			if strings.HasSuffix(k, ".self_host_ms") || strings.HasPrefix(k, "obs.") {
				r.layer[k] += v
			} else {
				r.layer[k] = v
			}
		}
	}
	if w.finish != nil {
		w.finish(r)
	}
	return r
}

// reported is one metric value with its unit and how it was sampled.
type reported struct {
	Value   float64
	Unit    string
	Samples string
}

// MarshalJSON writes a value that could not be measured (NaN) as null.
func (r reported) MarshalJSON() ([]byte, error) {
	v := any(r.Value)
	if math.IsNaN(r.Value) {
		v = nil
	}
	return json.Marshal(map[string]any{"value": v, "unit": r.Unit, "samples": r.Samples})
}

// workloadReport is everything measured for one workload.
type workloadReport struct {
	Name      string              `json:"name"`
	Shape     string              `json:"shape"`
	Reps      int                 `json:"reps"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]reported `json:"metrics"`
	PerLayer  map[string]reported `json:"per_layer,omitempty"`
	RootMS    float64             `json:"root_host_ms,omitempty"`

	reps   []*repResult
	traced *repResult
}

func (wr *workloadReport) add(r *repResult) {
	wr.Attempted += r.ops
	wr.Failed += r.failedOps
	wr.Failures = append(wr.Failures, r.failures...)
}

func (wr *workloadReport) correct() bool { return len(wr.Failures) == 0 && wr.Failed == 0 }

// runWorkload runs reps until the timed host work reaches cfg.seconds
// (and at least minReps), then the traced rep when asked. A rep with a
// failed unit is the last one: its other units still report.
func runWorkload(w *workload, cfg *config) *workloadReport {
	wr := &workloadReport{Name: w.name, Shape: w.shape}
	start := time.Now()
	timed := 0.0
	for len(wr.reps) < minReps || timed < cfg.seconds {
		if time.Since(start) > workloadBudget {
			wr.Failures = append(wr.Failures, fmt.Sprintf("run budget of %v exhausted", workloadBudget))
			break
		}
		r := runRep(w, cfg, false)
		wr.reps = append(wr.reps, r)
		wr.add(r)
		timed += r.hostS
		if r.failedOps > 0 {
			break
		}
	}
	if cfg.trace && wr.correct() {
		wr.traced = runRep(w, cfg, true)
		wr.add(wr.traced)
	}
	wr.finish()
	return wr
}

// finish computes the reported metrics and the cross-rep checks.
func (wr *workloadReport) finish() {
	wr.Reps = len(wr.reps)
	var setup, rate, alloc []float64
	var base *repResult // first rep with every unit intact: the exact results
	for _, r := range wr.reps {
		good := r.ops - r.failedOps
		if good <= 0 || r.cpuS <= 0 {
			continue
		}
		setup = append(setup, r.setupS)
		rate = append(rate, float64(good)/r.cpuS)
		alloc = append(alloc, float64(r.allocB)/1024/float64(good))
		if r.failedOps > 0 {
			continue
		}
		if base == nil {
			base = r
		} else if diff := simDiff(base.sim, r.sim); diff != "" {
			wr.Failures = append(wr.Failures, "simulated results differ between reps: "+diff)
		}
	}
	reps := fmt.Sprintf("median of %d reps", len(rate))
	wr.Metrics = map[string]reported{
		"setup_s":         {median(setup), "s", reps},
		"ops_per_cpu_s":   {median(rate), "1/s", reps},
		"alloc_kb_per_op": {median(alloc), "KiB", reps},
	}
	if wr.Attempted > 0 {
		wr.Metrics["fail_ratio"] = reported{float64(wr.Failed) / float64(wr.Attempted), "ratio",
			fmt.Sprintf("%d of %d ops failed", wr.Failed, wr.Attempted)}
	}
	// The simulated metrics: every workload has the two latency
	// quantiles, and the headline metrics of its own.
	samples := "exact"
	if base != nil {
		samples = fmt.Sprintf("exact, %.0f ops", base.sim["sim_samples"])
	}
	for _, m := range append(endToEnd[3:], headline[1:]...) {
		v, ok := math.NaN(), m.Name == "sim_op_p50_us" || m.Name == "sim_op_p99_us"
		if base != nil {
			if x, has := base.sim[m.Name]; has {
				v, ok = x, true
			}
		}
		if ok {
			wr.Metrics[m.Name] = reported{v, m.Unit, samples}
		}
	}
	if t := wr.traced; t != nil && base != nil {
		if diff := simDiff(base.sim, t.sim); diff != "" {
			wr.Failures = append(wr.Failures, "traced simulated results differ from untraced: "+diff)
		}
		wr.PerLayer = make(map[string]reported, len(perLayer))
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = reported{t.layer[m.Name], m.Unit, "traced rep"}
		}
		if good := t.ops - t.failedOps; good > 0 && t.cpuS > 0 {
			over := (median(rate)/(float64(good)/t.cpuS) - 1) * 100
			wr.PerLayer["mercurybench.trace_overhead_pct"] = reported{over, "%", "traced vs untraced median"}
		}
		wr.RootMS = t.rootMS
	}
}

// simDiff names the first simulated result that differs between two
// reps, or returns "".
func simDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return "different result sets"
	}
	return ""
}

// print writes the human-readable report of one workload.
func (wr *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s, %d reps\n", wr.Name, wr.Shape, wr.Reps)
	for _, list := range [][]metric{endToEnd, headline} {
		for _, m := range list {
			if r, ok := wr.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-18s %14s %-6s %s%s\n", m.Name, fmtValue(r.Value), r.Unit,
					r.Samples, paperNote[m.Name])
			}
		}
	}
	if wr.correct() {
		fmt.Fprintln(w, "  checks: ok")
	} else {
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "  FAILED:", f)
		}
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  per-layer self host time (traced rep, root span %.1f ms):\n", wr.RootMS)
	var sum float64
	for _, l := range selfLayers {
		ms := wr.PerLayer[l+".self_host_ms"].Value
		sum += ms
		if ms != 0 {
			fmt.Fprintf(w, "    %-14s %10.1f ms %6.1f%%\n", l, ms, 100*ms/wr.RootMS)
		}
	}
	fmt.Fprintf(w, "    %-14s %10.1f ms %6.1f%%\n", "sum", sum, 100*sum/wr.RootMS)
	fmt.Fprintln(w, "  per-layer metrics (traced rep; 0 = layer not exercised):")
	for _, m := range perLayer {
		if r := wr.PerLayer[m.Name]; r.Value != 0 && !strings.HasSuffix(m.Name, ".self_host_ms") {
			fmt.Fprintf(w, "    %-38s %14s %s\n", m.Name, fmtValue(r.Value), m.Unit)
		}
	}
}

// paperNote prints the paper's value beside the metrics it reports.
// They are informational: the working set differs from §7.4's.
var paperNote = map[string]string{
	"native_tax_pct": "  (paper §7: 2-3%)",
	"attach_us":      "  (paper §7.4: 220 us)",
	"detach_us":      "  (paper §7.4: 60 us)",
}

func fmtValue(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.6g", v)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// result builds the result line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one, named plainly for one
// workload and as workload/metric for several.
func result(reports []*workloadReport, traced bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]map[string]any{}}
	names, from := endToEnd, func(wr *workloadReport) map[string]reported { return wr.Metrics }
	if traced {
		names, from = perLayer, func(wr *workloadReport) map[string]reported { return wr.PerLayer }
	}
	for _, wr := range reports {
		line.Correct = line.Correct && wr.correct()
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, m := range names {
			v := from(wr)[m.Name].Value
			if math.IsNaN(v) {
				v, line.Correct = 0, false
			}
			key := m.Name
			if len(reports) > 1 {
				key = wr.Name + "/" + m.Name
			}
			line.Metrics[key] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	if line.Attempted == 0 {
		line.Correct = false
	}
	return line
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload (kernel-mix, switch-cycle, io-serve, fork-clone); default all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "timed host seconds to measure per workload, at most 120 (at least 3 reps run)")
	trace := flag.Int("trace", 0, "1 runs one extra traced rep per workload and reports the per-layer metrics")
	traceDir := flag.String("trace-dir", "", "with tracing, write each unit's Chrome trace and metric dump here (implies -trace 1)")
	jsonOut := flag.String("json", "", "write the full report as JSON to this file")
	unitName := flag.String("unit", "", "run one unit in this process and print its result (used by the parent)")
	flag.Parse()

	if *unitName != "" {
		os.Exit(unitMain(*unitName, *seed, *trace == 1, *traceDir))
	}
	if *seconds < 1 || *seconds > maxSeconds || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mercurybench: -seconds must be 1..%d and -trace 0 or 1\n", maxSeconds)
		os.Exit(2)
	}
	ws := allWorkloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "mercurybench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mercurybench:", err)
		os.Exit(2)
	}
	cfg := &config{seed: *seed, seconds: float64(*seconds), trace: *trace == 1 || *traceDir != "",
		traceDir: *traceDir, self: []string{exe}, deadline: unitDeadline}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mercurybench:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("mercurybench: seed %d, %d s timed per workload, trace %v\n", cfg.seed, *seconds, cfg.trace)
	var reports []*workloadReport
	for _, w := range ws {
		wr := runWorkload(w, cfg)
		wr.print(os.Stdout)
		reports = append(reports, wr)
	}
	if *jsonOut != "" {
		full := map[string]any{"seed": cfg.seed, "seconds": *seconds, "trace": cfg.trace,
			"end_to_end": append(endToEnd[:len(endToEnd):len(endToEnd)], headline...),
			"workloads":  reports}
		if err := writeJSON(*jsonOut, full); err != nil {
			fmt.Fprintln(os.Stderr, "mercurybench:", err)
			os.Exit(2)
		}
	}
	line := result(reports, cfg.trace)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mercurybench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// findWorkload returns the named workload, or nil.
func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// unitMain is the child side: run the named unit and print its result.
func unitMain(name string, seed int64, traced bool, traceDir string) int {
	wname, rung, _ := strings.Cut(name, "/")
	w := findWorkload(wname)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mercurybench: unknown unit %q\n", name)
		return 2
	}
	for _, u := range w.units() {
		if u.name != name {
			continue
		}
		res, err := runUnitHere(u, seed, traced, traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mercurybench:", err)
			return 1
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mercurybench:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	fmt.Fprintf(os.Stderr, "mercurybench: workload %s has no unit %q\n", wname, rung)
	return 2
}
