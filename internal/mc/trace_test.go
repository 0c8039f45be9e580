package mc

import (
	"fmt"
	"strings"
	"testing"
)

// TestTraceRoundTrip: for both seeded bugs, the rendering `mercuryctl
// mc -trace` prints must carry the counterexample through unchanged —
// a boot line, then one numbered line per step naming exactly the
// action at that position of Result.Trace, then the violation.
func TestTraceRoundTrip(t *testing.T) {
	for b, want := range map[Bug]Violation{
		BugTOCTOU:     VioCommitRefs,
		BugRendezvous: VioCommitUnparked,
	} {
		cfg := DefaultConfig()
		cfg.Bug = b
		res, err := Run(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		text := FormatTrace(cfg, res.Trace, res.Violation)
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		if len(lines) != len(res.Trace)+2 {
			t.Fatalf("%s: %d lines for a %d-step trace:\n%s", b, len(lines), len(res.Trace), text)
		}
		if !strings.HasPrefix(strings.TrimSpace(lines[0]), "boot:") {
			t.Fatalf("%s: first line %q is not the boot state", b, lines[0])
		}
		for i, a := range res.Trace {
			f := strings.Fields(lines[i+1])
			if len(f) < 2 || f[0] != fmt.Sprint(i+1) || f[1] != a.String() {
				t.Fatalf("%s: step line %q, want step %d %s", b, lines[i+1], i+1, a)
			}
		}
		if last := lines[len(lines)-1]; last != "violation: "+want.String() {
			t.Fatalf("%s: last line %q, want violation %s", b, last, want)
		}
	}
}

// TestReplayRejectsCorruptedTrace: splicing an impossible step into a
// trace must be detected, not silently applied.
func TestReplayRejectsCorruptedTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bug = BugTOCTOU
	res, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]Action(nil), res.Trace...)
	bad[0] = Action{Kind: ActCommitEnd} // CP is idle at boot
	if _, err := Replay(cfg, bad); err == nil {
		t.Fatal("replay accepted a corrupted trace")
	}
	// A clean-config replay of the buggy trace must also fail: the
	// gather step is not enabled without the seeded bug.
	if _, err := Replay(DefaultConfig(), res.Trace); err == nil {
		t.Fatal("replay reproduced a bug-only trace on the clean protocol")
	}
}

// TestReplayCleanPrefix: a prefix of a counterexample that stops short
// of the violation replays clean.
func TestReplayCleanPrefix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bug = BugRendezvous
	res, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vio, err := Replay(cfg, res.Trace[:len(res.Trace)-1])
	if err != nil {
		t.Fatal(err)
	}
	if vio != VioNone {
		t.Fatalf("prefix already violates: %s", vio)
	}
}

func TestFormatTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bug = BugTOCTOU
	res, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTrace(cfg, res.Trace, res.Violation)
	for _, want := range []string{"boot:", "gate-check", "ap-park",
		"rendezvous-gather", "commit-begin",
		"violation: commit-with-refcount-held"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, text)
		}
	}
}
