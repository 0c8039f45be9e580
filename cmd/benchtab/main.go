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
	"repro/internal/mc"
)

// options carries the flags runExperiment reads. -json changes where
// results go, but no simulated value, so no flag can move a baseline.
type options struct {
	json    bool
	jsonDir string
}

// experiment is one -exp entry. run prints the human-readable result
// and returns the value serialised to file, which is committed at the
// repo root; every run must reproduce it exactly.
type experiment struct {
	name string
	file string
	run  func() (any, error)
}

// auditReport is the divergence audit rendered as markdown, committed
// beside its baseline and gated byte for byte like it.
const auditReport = "divergence_report.md"

var experiments = []experiment{
	{"table1", "BENCH_table1.json", func() (any, error) { return lmbench(1) }},
	{"table2", "BENCH_table2.json", func() (any, error) { return lmbench(2) }},
	{"fig3", "BENCH_fig3.json", func() (any, error) { return appFigure(1) }},
	{"fig4", "BENCH_fig4.json", func() (any, error) { return appFigure(2) }},
	{"switch", "BENCH_modeswitch.json", modeSwitch},
	{"switchscale", "BENCH_switch.json", func() (any, error) {
		pts, err := bench.SwitchScale()
		if err != nil {
			return nil, err
		}
		bench.WriteSwitchScale(os.Stdout, pts)
		return bench.SwitchBaseline{Schema: bench.SwitchBaselineSchema, Scale: pts}, nil
	}},
	{"ablation", "BENCH_ablation.json", func() (any, error) {
		a, err := bench.TrackingAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteAblation(os.Stdout, a)
		return a, nil
	}},
	{"batching", "BENCH_batching.json", func() (any, error) {
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
	{"emulation", "BENCH_emulation.json", func() (any, error) {
		r, err := bench.EmulationAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteEmulationAblation(os.Stdout, r)
		return r, nil
	}},
	{"addrspace", "BENCH_addrspace.json", func() (any, error) {
		r, err := bench.AddrSpaceAblation()
		if err != nil {
			return nil, err
		}
		bench.WriteAddrSpaceAblation(os.Stdout, r)
		return r, nil
	}},
	{"fleet", "BENCH_fleet.json", func() (any, error) {
		pts, err := bench.FleetSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteFleetSweep(os.Stdout, pts)
		return bench.FleetBaseline{Schema: bench.FleetBaselineSchema, Sweep: pts}, nil
	}},
	{"fork", "BENCH_fork.json", func() (any, error) {
		pts, err := bench.ForkSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteForkSweep(os.Stdout, pts)
		return bench.ForkBaseline{Schema: bench.ForkBaselineSchema, Sweep: pts}, nil
	}},
	{"io", "BENCH_io.json", func() (any, error) {
		pts, sw, err := bench.IOSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteIOSweep(os.Stdout, pts, sw)
		return bench.IOBaseline{Schema: bench.IOBaselineSchema, Sweep: pts, Switch: sw}, nil
	}},
	{"migrate", "BENCH_migrate.json", func() (any, error) {
		pts, err := bench.MigrateSweep()
		if err != nil {
			return nil, err
		}
		bench.WriteMigrateSweep(os.Stdout, pts)
		return bench.MigrateBaseline{Schema: bench.MigrateBaselineSchema, Sweep: pts}, nil
	}},
	{"mc", "BENCH_mc.json", func() (any, error) {
		b, err := mc.BenchSuite()
		if err != nil {
			return nil, err
		}
		mc.WriteBenchTable(os.Stdout, b.Rows)
		return b, nil
	}},
	{"divergence", "BENCH_divergence.json", func() (any, error) {
		rep, err := divergence.Run(divergence.Config{})
		if err != nil {
			return nil, err
		}
		rep.WriteText(os.Stdout)
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
	jsonOut := flag.Bool("json", false,
		"write each experiment's BENCH_*.json (and "+auditReport+"), regenerating the committed files instead of failing on a difference")
	jsonDir := flag.String("jsondir", ".", "directory for -json result files")
	flag.Parse()

	o := &options{json: *jsonOut, jsonDir: *jsonDir}

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

// runExperiment runs e, diffs the result against its committed file
// (and, for the divergence audit, its rendered report), and writes both
// under -json. It reports false when either differs and -json is off.
func runExperiment(e experiment, o *options) (bool, error) {
	committed, err := os.ReadFile(e.file)
	if err != nil {
		return false, fmt.Errorf("%s: reading the committed baseline (run from the repo root): %w", e.name, err)
	}
	v, err := e.run()
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
	held, err := gate(o, e.file, data, diffs)
	rep, audit := v.(*divergence.Report)
	if err != nil || !audit {
		return held, err
	}
	committedMD, err := os.ReadFile(auditReport)
	if err != nil {
		return false, fmt.Errorf("%s: reading the committed report: %w", e.name, err)
	}
	var md bytes.Buffer
	rep.WriteMarkdown(&md)
	mdHeld, err := gate(o, auditReport, md.Bytes(), lineDiff(committedMD, md.Bytes()))
	return held && mdHeld, err
}

// gate reports one output's differences from its committed file and
// writes the output under -json. It reports false when there are
// differences and -json is off.
func gate(o *options, file string, data []byte, diffs []string) (bool, error) {
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", file, d)
	}
	held := true
	switch {
	case len(diffs) == 0:
		fmt.Printf("%s reproduced exactly\n", file)
	case !o.json:
		fmt.Fprintf(os.Stderr, "%s: %d difference(s); regenerate with -json if the change is intended\n",
			file, len(diffs))
		held = false
	}
	if o.json {
		if err := writeFile(filepath.Join(o.jsonDir, file), data); err != nil {
			return false, err
		}
	}
	return held, nil
}

// lineDiff compares two text documents line by line and returns one
// message per differing line.
func lineDiff(committed, rendered []byte) []string {
	a := strings.Split(string(committed), "\n")
	b := strings.Split(string(rendered), "\n")
	var out []string
	for i := 0; i < max(len(a), len(b)); i++ {
		var la, lb string
		if i < len(a) {
			la = a[i]
		}
		if i < len(b) {
			lb = b[i]
		}
		if la != lb {
			out = append(out, fmt.Sprintf("line %d: committed %q, rendered %q", i+1, la, lb))
		}
	}
	return out
}

func writeFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func lmbench(ncpu int) (any, error) {
	t, err := bench.LmbenchTable(ncpu, bench.Options{})
	if err != nil {
		return nil, err
	}
	bench.WriteTable(os.Stdout, t)
	return t, nil
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
func modeSwitch() (any, error) {
	r, err := bench.ModeSwitchBench(10, core.TrackRecompute, bench.Options{})
	if err != nil {
		return nil, err
	}
	bench.WriteSwitch(os.Stdout, r)
	return r, nil
}
