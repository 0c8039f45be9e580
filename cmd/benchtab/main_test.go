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
