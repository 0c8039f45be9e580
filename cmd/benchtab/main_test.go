package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"

	"repro/internal/bench"
)

// TestGatedBaselinesCommitted: every experiment is gated on a committed
// baseline that decodes, every BENCH_*.json at the repo root belongs to
// exactly one experiment, and CI's bench job runs every experiment.
func TestGatedBaselinesCommitted(t *testing.T) {
	root := filepath.Join("..", "..")
	matrix := benchMatrix(t, filepath.Join(root, ".github", "workflows", "ci.yml"))
	owners := map[string]int{}
	for _, e := range experiments {
		if e.file == "" {
			t.Errorf("%s: no committed baseline", e.name)
			continue
		}
		owners[e.file]++
		if !matrix[e.name] {
			t.Errorf("%s: not in ci.yml's bench matrix", e.name)
		}
		data, err := os.ReadFile(filepath.Join(root, e.file))
		if err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		diffs, err := bench.Diff(data, data)
		if err != nil || len(diffs) != 0 {
			t.Errorf("%s: %s does not decode: %v %v", e.name, e.file, err, diffs)
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if n := owners[filepath.Base(f)]; n != 1 {
			t.Errorf("%s belongs to %d experiments, want 1", filepath.Base(f), n)
		}
	}
}

// benchMatrix returns the experiment names in the bench job's
// `exp: [...]` matrix of the CI workflow at path.
func benchMatrix(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	job := strings.Index(s, "\n  bench:\n")
	if job < 0 {
		t.Fatalf("%s: no bench job", path)
	}
	s = s[job:]
	start := strings.Index(s, "exp: [")
	end := strings.Index(s, "]")
	if start < 0 || end < start {
		t.Fatalf("%s: bench job has no exp: [...] matrix", path)
	}
	names := map[string]bool{}
	for _, n := range strings.FieldsFunc(s[start+len("exp: ["):end], func(r rune) bool {
		return r == ',' || unicode.IsSpace(r)
	}) {
		names[n] = true
	}
	return names
}

// TestAuditReportGated: the divergence experiment holds only when the
// rendered report matches the committed divergence_report.md byte for
// byte; one hand-edited cell fails it.
func TestAuditReportGated(t *testing.T) {
	var div experiment
	for _, e := range experiments {
		if e.name == "divergence" {
			div = e
		}
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := os.ReadFile(filepath.Join(root, div.file))
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(root, auditReport))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(report), "| kernel/forks | 76 |", "| kernel/forks | 77 |", 1)
	if edited == string(report) {
		t.Fatal("committed report has no kernel/forks cell to edit")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range []struct {
		report string
		want   bool
	}{{string(report), true}, {edited, false}} {
		if err := os.WriteFile(div.file, baseline, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(auditReport, []byte(tc.report), 0o644); err != nil {
			t.Fatal(err)
		}
		held, err := runExperiment(div, &options{jsonDir: dir})
		if err != nil || held != tc.want {
			t.Errorf("edited=%v: held %v, %v; want held %v", tc.report != string(report), held, err, tc.want)
		}
	}
}
