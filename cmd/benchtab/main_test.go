package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestGatedBaselinesCommitted: every gated experiment's baseline exists
// at the repo root and is a JSON document that diffs clean against
// itself.
func TestGatedBaselinesCommitted(t *testing.T) {
	gated := 0
	for _, e := range experiments {
		if !e.gated {
			continue
		}
		gated++
		data, err := os.ReadFile(filepath.Join("..", "..", e.file))
		if err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		diffs, err := bench.Diff(data, data)
		if err != nil || len(diffs) != 0 {
			t.Errorf("%s: %s does not decode: %v %v", e.name, e.file, err, diffs)
		}
	}
	if gated != 12 {
		t.Errorf("%d gated experiments, want 12", gated)
	}
}
