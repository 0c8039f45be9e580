// benchtab regenerates every table and figure of the paper's evaluation
// (§7): Table 1 and Table 2 (lmbench latencies across the six system
// configurations, UP and SMP), Figures 3 and 4 (relative application
// performance), the mode-switch timings of §7.4, the §5.1.2
// frame-tracking ablation, and the extension sweeps.
//
// Every experiment reproduces a committed BENCH_*.json baseline. The
// simulation is deterministic, so the gate is exact: any value that
// differs from the committed file is reported by its JSON path and
// fails the run.
//
// Usage:
//
//	benchtab                       # everything, every baseline checked
//	benchtab -exp table1           # one experiment: table1 table2 fig3 fig4
//	                               # switch switchscale ablation ...
//	benchtab -exp switchscale      # rerun the sweep, diff BENCH_switch.json
//	benchtab -exp switchscale -json
//	                               # regenerate BENCH_switch.json; differences
//	                               # are printed, not fatal
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/hw"
	"repro/internal/mc"
	"repro/internal/obs"
)

// options carries the flags the experiments read. -metrics changes what
// is dumped and -json where results go, but no simulated value, so no
// flag can move a baseline.
type options struct {
	metrics    bool
	metricsDir string
	json       bool
	jsonDir    string
}

// experiment is one -exp entry. run prints the human-readable result
// and returns the value serialised to file, which is committed at the
// repo root; every run must reproduce it exactly.
type experiment struct {
	name string
	file string
	run  func(o *options) (any, error)
}

var experiments = []experiment{
	{"table1", "BENCH_table1.json", func(o *options) (any, error) { return lmbench(o, "table1", 1) }},
	{"table2", "BENCH_table2.json", func(o *options) (any, error) { return lmbench(o, "table2", 2) }},
	{"fig3", "BENCH_fig3.json", func(*options) (any, error) { return appFigure(1) }},
	{"fig4", "BENCH_fig4.json", func(*options) (any, error) { return appFigure(2) }},
	{"switch", "BENCH_modeswitch.json", modeSwitch},
	{"switchscale", "BENCH_switch.json", func(*options) (any, error) {
		pts, err := bench.SwitchScale()
		if err != nil {
			return nil, err
		}
		bench.WriteSwitchScale(os.Stdout, pts)
		return bench.SwitchBaseline{Schema: bench.SwitchBaselineSchema, Scale: pts}, nil
	}},
	{"ablation", "BENCH_ablation.json", func(*options) (any, error) {
		a, err := bench.TrackingAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteAblation(os.Stdout, a)
		return a, nil
	}},
	{"batching", "BENCH_batching.json", func(*options) (any, error) {
		ab, err := bench.BatchingAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteBatchingAblation(os.Stdout, ab)
		fmt.Println()
		pts, err := bench.BatchingSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteBatchingSweep(os.Stdout, pts)
		return bench.BatchingBaseline{Schema: bench.BatchingSchema, Points: pts}, nil
	}},
	{"emulation", "BENCH_emulation.json", func(*options) (any, error) {
		r, err := bench.EmulationAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteEmulationAblation(os.Stdout, r)
		return r, nil
	}},
	{"addrspace", "BENCH_addrspace.json", func(*options) (any, error) {
		r, err := bench.AddrSpaceAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteAddrSpaceAblation(os.Stdout, r)
		return r, nil
	}},
	{"fleet", "BENCH_fleet.json", func(*options) (any, error) {
		pts, err := bench.FleetSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteFleetSweep(os.Stdout, pts)
		return bench.FleetBaseline{Schema: bench.FleetBaselineSchema, Sweep: pts}, nil
	}},
	{"fork", "BENCH_fork.json", func(*options) (any, error) {
		pts, err := bench.ForkSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteForkSweep(os.Stdout, pts)
		return bench.ForkBaseline{Schema: bench.ForkBaselineSchema, Sweep: pts}, nil
	}},
	{"io", "BENCH_io.json", func(*options) (any, error) {
		pts, sw, err := bench.IOSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteIOSweep(os.Stdout, pts, sw)
		return bench.IOBaseline{Schema: bench.IOBaselineSchema, Sweep: pts, Switch: sw}, nil
	}},
	{"migrate", "BENCH_migrate.json", func(*options) (any, error) {
		pts, err := bench.MigrateSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteMigrateSweep(os.Stdout, pts)
		return bench.MigrateBaseline{Schema: bench.MigrateBaselineSchema, Sweep: pts}, nil
	}},
	{"mc", "BENCH_mc.json", func(*options) (any, error) {
		b, err := mc.BenchSuite()
		if err != nil {
			return nil, err
		}
		mc.WriteBenchTable(os.Stdout, b.Rows)
		return b, nil
	}},
	{"divergence", "BENCH_divergence.json", func(o *options) (any, error) {
		rep, err := divergence.Run(divergence.Config{})
		if err != nil {
			return nil, err
		}
		rep.WriteText(os.Stdout)
		if o.json {
			var md bytes.Buffer
			rep.WriteMarkdown(&md)
			if err := writeFile(filepath.Join(o.jsonDir, "divergence_report.md"), md.Bytes()); err != nil {
				return nil, err
			}
		}
		return rep, rep.CheckBudget()
	}},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all",
		"experiment to run: "+strings.Join(names, ", ")+", all")
	metrics := flag.Bool("metrics", false,
		"collect telemetry and write per-configuration metric dumps (JSON)")
	metricsDir := flag.String("metricsdir", ".", "directory for -metrics dump files")
	jsonOut := flag.Bool("json", false,
		"write each experiment's BENCH_*.json, regenerating the committed baseline instead of failing on a difference")
	jsonDir := flag.String("jsondir", ".", "directory for -json result files")
	flag.Parse()

	o := &options{metrics: *metrics, metricsDir: *metricsDir, json: *jsonOut, jsonDir: *jsonDir}

	ran, held := false, true
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.name) {
			continue
		}
		ran = true
		ok, err := runExperiment(e, o)
		if err != nil {
			log.Fatal(err)
		}
		held = held && ok
		fmt.Println()
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if !held {
		os.Exit(1)
	}
}

// runExperiment runs e, diffs the result against its committed file,
// and writes the result under -json. It reports false when the result
// differs and -json is off.
func runExperiment(e experiment, o *options) (bool, error) {
	// Read before running: under -json the run overwrites the file.
	committed, err := os.ReadFile(e.file)
	if err != nil {
		return false, fmt.Errorf("%s: reading the committed baseline (run from the repo root): %w", e.name, err)
	}
	v, err := e.run(o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", e.name, err)
	}
	data, err := bench.EncodeJSON(v)
	if err != nil {
		return false, err
	}
	diffs, err := bench.Diff(committed, data)
	if err != nil {
		return false, fmt.Errorf("%s: %w", e.file, err)
	}
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", e.file, d)
	}
	held := true
	switch {
	case len(diffs) == 0:
		fmt.Printf("%s reproduced exactly\n", e.file)
	case !o.json:
		fmt.Fprintf(os.Stderr, "%s: %d value(s) differ; regenerate with -json if the change is intended\n",
			e.file, len(diffs))
		held = false
	}
	if o.json {
		if err := writeFile(filepath.Join(o.jsonDir, e.file), data); err != nil {
			return false, err
		}
	}
	return held, nil
}

func writeFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func writeMetrics(path string, col *obs.Collector) error {
	var buf bytes.Buffer
	if err := col.Registry.WriteJSON(&buf); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}

// collectorsFor returns per-configuration collectors (and a dump
// function) when -metrics is on, else zero options.
func collectorsFor(o *options, expName string, ncpu int) (bench.Options, func() error) {
	if !o.metrics {
		return bench.Options{}, func() error { return nil }
	}
	cs := bench.NewCollectorSet(ncpu)
	return bench.Options{CollectorFor: cs.For}, func() error {
		for _, key := range cs.Keys() {
			path := filepath.Join(o.metricsDir, fmt.Sprintf("metrics-%s-%s.json", expName, key))
			if err := writeMetrics(path, cs.For(key)); err != nil {
				return err
			}
		}
		cs.WriteTraceHealth(os.Stdout)
		return nil
	}
}

func lmbench(o *options, name string, ncpu int) (any, error) {
	opt, dump := collectorsFor(o, name, ncpu)
	t, err := bench.LmbenchTable(ncpu, opt)
	if err != nil {
		return nil, err
	}
	bench.WriteTable(os.Stdout, t)
	return t, dump()
}

func appFigure(ncpu int) (any, error) {
	f, err := bench.AppFigure(ncpu, bench.Options{})
	if err != nil {
		return nil, err
	}
	bench.WriteFigure(os.Stdout, f)
	return f, nil
}

// modeSwitch is the §7.4 switch-time measurement: 10 round trips under
// the recompute policy, the paper's default.
func modeSwitch(o *options) (any, error) {
	opt := bench.Options{}
	if o.metrics {
		opt.Collector = obs.New(1)
	}
	r, err := bench.ModeSwitchBench(10, core.TrackRecompute, opt)
	if err != nil {
		return nil, err
	}
	bench.WriteSwitch(os.Stdout, r)
	if col := opt.Collector; col != nil {
		fmt.Println()
		bench.WritePhaseBreakdown(os.Stdout, col, hw.DefaultHz)
		if err := writeMetrics(filepath.Join(o.metricsDir, "metrics-switch-M-N.json"), col); err != nil {
			return nil, err
		}
		bench.WriteTraceHealth(os.Stdout, "M-N", col)
	}
	return r, nil
}
