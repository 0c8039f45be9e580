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

// switchAcrossNative attaches d over sharedForest's roots with CR3 on
// the first, detaches by the rule, runs native on the native side of
// the switch, and attaches again. It returns the table, the second
// attach's cycles and the rule attaches. forceWalk makes the second
// attach walk: an owner change refuses the keep.
func switchAcrossNative(t *testing.T, native func(v *VMM, d *Domain, c *hw.CPU, roots []hw.PFN),
	forceWalk bool) (*FrameTable, hw.Cycles, uint64) {
	t.Helper()
	v, d, c := testVMM(t)
	roots := sharedForest(v, d, 5)
	c.WriteCR3(roots[0])
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	v.ReleaseFrameInfo(c, d)
	if native != nil {
		native(v, d, c, roots)
	}
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

// requireWalkTable requires the table and cycles of an attach to be a
// walk's, and the attach to have gone by the rule exactly when byRule.
func requireWalkTable(t *testing.T, native func(v *VMM, d *Domain, c *hw.CPU, roots []hw.PFN), byRule bool) {
	t.Helper()
	got, gotCyc, ruled := switchAcrossNative(t, native, false)
	walk, walkCyc, _ := switchAcrossNative(t, nil, true)
	want := uint64(0)
	if byRule {
		want = 1
	}
	if ruled != want {
		t.Fatalf("%d rule attaches, want %d", ruled, want)
	}
	if err := got.Equal(walk); err != nil {
		t.Fatal(err)
	}
	if gotCyc != walkCyc {
		t.Fatalf("attach charged %d cycles, the walk %d", gotCyc, walkCyc)
	}
}

// TestAttachRuleAfterNativeReads: while native after a rule detach the
// kept records read as forgotten to every reader (Get, CheckInvariants,
// FirstPinned) and cr3Root still finds the root it owns, and none of
// these reads spoils the keep: the next attach goes by the rule and
// leaves the walk's table.
func TestAttachRuleAfterNativeReads(t *testing.T) {
	requireWalkTable(t, func(v *VMM, d *Domain, c *hw.CPU, roots []hw.PFN) {
		shared := hw.ReadPTE(v.M.Mem, roots[0], 0).Frame()
		data := hw.ReadPTE(v.M.Mem, shared, 0).Frame()
		for _, pfn := range append(slices.Clone(roots), shared, data) {
			if fi := v.FT.Get(pfn); fi != (FrameInfo{Owner: d.ID}) {
				t.Fatalf("frame %d reads %+v while native, want no accounting", pfn, fi)
			}
		}
		if err := v.FT.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if pfn, ok := v.FT.FirstPinned(); ok {
			t.Fatalf("frame %d pinned while native", pfn)
		}
		if root, ok := v.cr3Root(c, d); !ok || root != roots[0] {
			t.Fatalf("cr3Root = %d %v, want %d true", root, ok, roots[0])
		}
	}, true)
}

// TestAttachRuleSpoiledByClearedKeptRecord: a refused drop of a type
// ref on a kept L1 while native (the record reads as forgotten, so the
// drop underflows) clears the record without touching it. The keep is
// then spoiled, and the next attach walks and leaves the walk's table.
func TestAttachRuleSpoiledByClearedKeptRecord(t *testing.T) {
	requireWalkTable(t, func(v *VMM, d *Domain, c *hw.CPU, roots []hw.PFN) {
		shared := hw.ReadPTE(v.M.Mem, roots[0], 0).Frame()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a type ref the native table does not hold was dropped")
				}
			}()
			v.FT.PutType(shared)
		}()
		if n := v.FT.Touched(); n != 0 {
			t.Fatalf("%d frames touched by a refused drop, want 0", n)
		}
	}, false)
}
