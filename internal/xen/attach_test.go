package xen

import (
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// sharedForest builds three directories in d's frames: the first and
// third reach one shared L1 of n entries, the second a private L1 of n
// entries; each entry maps a data frame, writable if even. It returns
// the directories.
func sharedForest(v *VMM, d *Domain, n int) []hw.PFN {
	l1 := func() hw.PFN {
		pt := d.Frames.Alloc()
		for i := 0; i < n; i++ {
			flags := uint32(hw.PTEPresent | hw.PTEUser)
			if i%2 == 0 {
				flags |= hw.PTEWrite
			}
			hw.WritePTE(v.M.Mem, pt, i, hw.MakePTE(d.Frames.Alloc(), flags))
		}
		return pt
	}
	shared, private := l1(), l1()
	roots := make([]hw.PFN, 3)
	for i, pt := range []hw.PFN{shared, private, shared} {
		roots[i] = d.Frames.Alloc()
		hw.WritePTE(v.M.Mem, roots[i], i, hw.MakePTE(pt, hw.PTEPresent|hw.PTEUser))
	}
	return roots
}

// TestAttachRulePinInstants: an attach by the rule emits each xen/pin
// instant at the cycle the walk emits it, for roots handed over in an
// order that reaches the shared L1 from the last root first.
func TestAttachRulePinInstants(t *testing.T) {
	pins := func(forceWalk bool) ([]obs.Span, hw.Cycles, uint64) {
		v, d, c := testVMM(t)
		roots := sharedForest(v, d, 7)
		order := []hw.PFN{roots[2], roots[1], roots[0]}
		c.WriteCR3(roots[1])
		if err := v.RecomputeFrameInfo(c, d, order, 1); err != nil {
			t.Fatal(err)
		}
		v.ReleaseFrameInfo(c, d)
		if forceWalk {
			v.FT.SetOwner(roots[0], d.ID)
		}
		col := obs.New(1)
		v.M.SetTelemetry(col)
		start := c.Now()
		if err := v.RecomputeFrameInfo(c, d, order, 1); err != nil {
			t.Fatal(err)
		}
		var out []obs.Span
		for _, s := range col.Tracer.Spans() {
			if s.Name == "xen/pin" {
				s.Start -= uint64(start)
				s.End -= uint64(start)
				s.ID, s.Parent = 0, 0
				out = append(out, s)
			}
		}
		return out, c.Now() - start, v.Stats.RuleAttaches.Load()
	}
	rule, ruleCyc, ruled := pins(false)
	walk, walkCyc, walked := pins(true)
	if ruled != 1 || walked != 0 {
		t.Fatalf("rule attaches %d and %d, want 1 and 0", ruled, walked)
	}
	if len(rule) != 3 || !slices.Equal(rule, walk) {
		t.Fatalf("pin instants by the rule %+v, by the walk %+v", rule, walk)
	}
	if ruleCyc != walkCyc {
		t.Fatalf("rule charged %d cycles, walk %d", ruleCyc, walkCyc)
	}
}

// TestAttachRuleRestoresAfterNativeStores: entry stores the native
// kernel makes to a kept L1 are replayed, and the attach leaves the
// table a walk of the changed trees builds, at the walk's cycles.
func TestAttachRuleRestoresAfterNativeStores(t *testing.T) {
	build := func(forceWalk bool) (*FrameTable, hw.Cycles, uint64) {
		v, d, c := testVMM(t)
		roots := sharedForest(v, d, 5)
		c.WriteCR3(roots[0])
		if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
			t.Fatal(err)
		}
		v.ReleaseFrameInfo(c, d)
		shared := hw.ReadPTE(v.M.Mem, roots[0], 0).Frame()
		hw.WritePTE(v.M.Mem, shared, 1, 0)                                                       // unmapped
		hw.WritePTE(v.M.Mem, shared, 2, hw.ReadPTE(v.M.Mem, shared, 2).WithFlags(hw.PTEPresent)) // read-only
		hw.WritePTE(v.M.Mem, shared, 9, hw.MakePTE(d.Frames.Alloc(), hw.PTEPresent|hw.PTEWrite))
		if forceWalk {
			v.FT.SetOwner(roots[0], d.ID)
		}
		start := c.Now()
		if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
			t.Fatal(err)
		}
		if err := v.FT.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return v.FT, c.Now() - start, v.Stats.RuleAttaches.Load()
	}
	rule, ruleCyc, ruled := build(false)
	walk, walkCyc, _ := build(true)
	if ruled != 1 {
		t.Fatalf("%d rule attaches, want 1", ruled)
	}
	if err := rule.Equal(walk); err != nil {
		t.Fatal(err)
	}
	if ruleCyc != walkCyc {
		t.Fatalf("rule charged %d cycles, walk %d", ruleCyc, walkCyc)
	}
}
