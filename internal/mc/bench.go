package mc

import (
	"fmt"
	"io"
)

// The committed checker evidence: BENCH_mc.json records, for a fixed
// row set, how many states and transitions each exploration visits and
// what verdict it reaches. All of it is deterministic for a fixed
// configuration, so `benchtab -exp mc` diffs it exactly — a protocol
// change that shrinks or grows the reachable state space, flips a
// verdict, or lengthens a minimal counterexample shows up as a baseline
// breach, not a silent drift.

// BenchRow is one exploration's committed evidence.
type BenchRow struct {
	Name        string  `json:"name"`
	CPUs        int     `json:"cpus"`
	Workers     int     `json:"workers"`
	Bug         string  `json:"bug"`
	Violation   string  `json:"violation"`
	Complete    bool    `json:"complete"`
	States      int     `json:"states"`
	Transitions int     `json:"transitions"`
	BoundUsed   int     `json:"bound_used"`
	TraceLen    int     `json:"trace_len"`
	ElapsedMS   float64 `json:"-"` // host wall clock: printed, never committed
}

// Baseline is the committed BENCH_mc.json shape.
type Baseline struct {
	Schema string     `json:"schema"`
	Rows   []BenchRow `json:"rows"`
}

const baselineSchema = "mc-baseline/v2"

// wideConfig is the larger clean row: three CPUs, three workers.
func wideConfig() Config {
	return Config{CPUs: 3, Workers: 3, OpsPerWorker: 2, Switches: 3,
		MaxDeferrals: 2, Journal: true}
}

// benchRows is the fixed row set. Clean explorations must be complete
// and violation-free; the seeded rows must rediscover their bug — the
// suite itself enforces both, so `benchtab -exp mc` fails loudly even
// without a baseline to diff.
func benchRows() []struct {
	name   string
	cfg    Config
	expect Violation
} {
	uni := Config{CPUs: 1, Workers: 2, OpsPerWorker: 2, Switches: 3,
		MaxDeferrals: 2, Journal: true}
	return []struct {
		name   string
		cfg    Config
		expect Violation
	}{
		{"clean-default", DefaultConfig(), VioNone},
		{"clean-uniprocessor", uni, VioNone},
		{"clean-wide", wideConfig(), VioNone},
		{"seeded-toctou", bugConfig(BugTOCTOU), VioCommitRefs},
		{"seeded-rendezvous", bugConfig(BugRendezvous), VioCommitUnparked},
	}
}

func bugConfig(b Bug) Config {
	cfg := DefaultConfig()
	cfg.Bug = b
	return cfg
}

// BenchSuite runs the fixed row set and returns its evidence, erroring
// if any row misses its expected verdict (a clean row violated, an
// incomplete clean exploration, or a seeded bug not rediscovered).
func BenchSuite() (*Baseline, error) {
	var rows []BenchRow
	for _, r := range benchRows() {
		res, err := Run(r.cfg, Options{})
		if err != nil {
			return nil, fmt.Errorf("mc bench %s: %w", r.name, err)
		}
		if res.Violation != r.expect {
			return nil, fmt.Errorf("mc bench %s: verdict %s, want %s",
				r.name, res.Violation, r.expect)
		}
		if r.expect == VioNone && !res.Complete {
			return nil, fmt.Errorf("mc bench %s: state graph not closed", r.name)
		}
		rows = append(rows, BenchRow{
			Name:        r.name,
			CPUs:        r.cfg.CPUs,
			Workers:     r.cfg.Workers,
			Bug:         r.cfg.Bug.String(),
			Violation:   res.Violation.String(),
			Complete:    res.Complete,
			States:      res.States,
			Transitions: res.Transitions,
			BoundUsed:   res.BoundUsed,
			TraceLen:    res.TraceLen,
			ElapsedMS:   res.ElapsedMS,
		})
	}
	return &Baseline{Schema: baselineSchema, Rows: rows}, nil
}

// WriteBenchTable renders the suite for humans.
func WriteBenchTable(w io.Writer, rows []BenchRow) {
	fmt.Fprintf(w, "%-24s %5s %7s %-26s %9s %11s %6s %4s %9s\n",
		"row", "cpus", "workers", "violation", "states",
		"transitions", "bound", "cex", "ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %5d %7d %-26s %9d %11d %6d %4d %9.2f\n",
			r.Name, r.CPUs, r.Workers, r.Violation, r.States,
			r.Transitions, r.BoundUsed, r.TraceLen, r.ElapsedMS)
	}
}
