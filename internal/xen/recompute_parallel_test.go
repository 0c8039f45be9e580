package xen

import (
	"slices"
	"testing"

	"repro/internal/hw"
)

// buildForest creates n disjoint trees of pages mapped pages each,
// returning their roots.
func buildForest(t testing.TB, v *VMM, d *Domain, n, pages int) []hw.PFN {
	t.Helper()
	var roots []hw.PFN
	for i := 0; i < n; i++ {
		tb, _ := buildTree(t, v, d, pages)
		roots = append(roots, tb.Root)
	}
	return roots
}

// The parallel recompute's correctness gate: bit-identical frame
// accounting to the serial walk over the same roots.
func TestParallelRecomputeMatchesSerial(t *testing.T) {
	v, d, c := testVMM(t)
	roots := buildForest(t, v, d, 5, 9)

	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	serial := v.FT.Clone()
	v.ReleaseFrameInfo(c, d)

	if err := v.RecomputeFrameInfo(c, d, roots, 4); err != nil {
		t.Fatal(err)
	}
	if err := v.FT.Equal(serial); err != nil {
		t.Fatalf("parallel recompute diverges from serial: %v", err)
	}
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if !d.HasPinned(r) {
			t.Fatalf("root %d not recorded as pinned", r)
		}
	}
	if v.Stats.RecomputeFallbacks.Load() != 0 {
		t.Fatal("disjoint trees should not hit the serial fallback")
	}
}

// Max-of-shards accounting: sharding equal trees across 4 workers must
// cost well under the serial sum.
func TestParallelRecomputeSubLinearCycles(t *testing.T) {
	v, d, c := testVMM(t)
	roots := buildForest(t, v, d, 4, 16)

	before := c.Now()
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	serial := c.Now() - before
	v.ReleaseFrameInfo(c, d)

	before = c.Now()
	if err := v.RecomputeFrameInfo(c, d, roots, 4); err != nil {
		t.Fatal(err)
	}
	parallel := c.Now() - before
	if parallel*2 >= serial {
		t.Fatalf("parallel recompute (%d) not sub-linear vs serial (%d)", parallel, serial)
	}
}

// Two roots in two shards reaching the same L1 could not have been
// walked independently: the recompute must count a fallback, and its
// result is still the serial one.
func TestParallelRecomputeConflictFallsBack(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 4)
	s, ok := tb.ExistingSlot(0x0800_0000)
	if !ok {
		t.Fatal("missing slot")
	}
	// A second root whose only PDE points at the first tree's L1.
	root2 := d.Frames.Alloc()
	hw.WritePTE(v.M.Mem, root2, 0, hw.MakePTE(s.Table, hw.PTEPresent|hw.PTEUser))
	roots := []hw.PFN{tb.Root, root2}

	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	serial := v.FT.Clone()
	v.ReleaseFrameInfo(c, d)

	if err := v.RecomputeFrameInfo(c, d, roots, 2); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats.RecomputeFallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	if err := v.FT.Equal(serial); err != nil {
		t.Fatalf("fallback result diverges from serial: %v", err)
	}
}

// The transactional contract: an injected pin failure surfaces as an
// error with the frame table and pin state untouched, and a retry
// succeeds.
func TestParallelRecomputeTransientFailureRollsBack(t *testing.T) {
	v, d, c := testVMM(t)
	roots := buildForest(t, v, d, 3, 4)
	clean := v.FT.Clone()

	v.InjectPinFailures(1)
	if err := v.RecomputeFrameInfo(c, d, roots, 3); err == nil {
		t.Fatal("injected pin failure not reported")
	}
	if err := v.FT.Equal(clean); err != nil {
		t.Fatalf("failed parallel recompute left state behind: %v", err)
	}
	for _, r := range roots {
		if d.HasPinned(r) {
			t.Fatalf("root %d pinned despite failure", r)
		}
	}
	if err := v.RecomputeFrameInfo(c, d, roots, 3); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// RecomputeFrameInfo routes small working sets and uniprocessors to
// the serial walk.
func TestRecomputeAutoDispatch(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 3)
	if err := v.RecomputeFrameInfo(c, d, []hw.PFN{tb.Root}, 8); err != nil {
		t.Fatal(err)
	}
	if !d.HasPinned(tb.Root) {
		t.Fatal("auto dispatch (serial path) did not pin")
	}
	v.ReleaseFrameInfo(c, d)
	tb2, _ := buildTree(t, v, d, 3)
	if err := v.RecomputeFrameInfo(c, d, []hw.PFN{tb.Root, tb2.Root}, 2); err != nil {
		t.Fatal(err)
	}
	if !d.HasPinned(tb.Root) || !d.HasPinned(tb2.Root) {
		t.Fatal("auto dispatch (parallel path) did not pin")
	}
}

// The sharded charge is a rule over the serial walk: shard s owns the
// roots i ≡ s (mod shards) and costs those roots' serial walks, and the
// attach pays the largest shard plus FrameMerge per distinct frame the
// walk touched. On a conflict it pays the largest shard plus the whole
// serial walk instead of the merge.
func TestShardedRecomputeCostRule(t *testing.T) {
	v, d, c := testVMM(t)
	sizes := []int{3, 40, 9, 25, 1}
	var roots []hw.PFN
	for _, pages := range sizes {
		tb, _ := buildTree(t, v, d, pages)
		roots = append(roots, tb.Root)
	}
	charge := func(roots []hw.PFN, workers int) hw.Cycles {
		t.Helper()
		before := c.Now()
		if err := v.RecomputeFrameInfo(c, d, roots, workers); err != nil {
			t.Fatal(err)
		}
		return c.Now() - before
	}
	cost := make([]hw.Cycles, len(roots))
	for i, r := range roots {
		cost[i] = charge([]hw.PFN{r}, 1)
		v.ReleaseFrameInfo(c, d)
	}
	// The frame table's dirty set counts the walk's distinct frames: a
	// root, its one L1 and its data pages per tree.
	v.FT.Reset()
	charge(roots, 1)
	frames := v.FT.Touched()
	v.ReleaseFrameInfo(c, d)
	if want := 2*len(sizes) + 3 + 40 + 9 + 25 + 1; frames != want {
		t.Fatalf("walk touched %d frames, want %d", frames, want)
	}
	for _, shards := range []int{3, 2} {
		tally := make([]hw.Cycles, shards)
		for i := range roots {
			tally[i%shards] += cost[i]
		}
		want := slices.Max(tally) + v.M.Costs.FrameMerge*hw.Cycles(frames)
		if got := charge(roots, shards); got != want {
			t.Errorf("%d shards %v: charged %d, want %d", shards, tally, got, want)
		}
		v.ReleaseFrameInfo(c, d)
	}
	if n := v.Stats.RecomputeFallbacks.Load(); n != 0 {
		t.Fatalf("disjoint trees counted %d fallbacks", n)
	}

	// A walk that fails at root 2, already pinned, pays the largest
	// shard of the roots walked before it and merges nothing.
	if err := v.HypPinTable(c, d, roots[2]); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := v.RecomputeFrameInfo(c, d, roots, 2); err == nil {
		t.Fatal("re-pinning root 2 not refused")
	}
	if got, want := c.Now()-before, max(cost[0], cost[1]); got != want {
		t.Errorf("failed walk: charged %d, want %d", got, want)
	}
	if err := v.HypUnpinTable(c, d, roots[2]); err != nil {
		t.Fatal(err)
	}

	// TestParallelRecomputeConflictFallsBack's forest: the second root's
	// only PDE reaches the first tree's L1, which the serial walk has
	// already validated by then.
	v, d, c = testVMM(t)
	tb, _ := buildTree(t, v, d, 4)
	s, ok := tb.ExistingSlot(0x0800_0000)
	if !ok {
		t.Fatal("missing slot")
	}
	root2 := d.Frames.Alloc()
	hw.WritePTE(v.M.Mem, root2, 0, hw.MakePTE(s.Table, hw.PTEPresent|hw.PTEUser))
	roots = []hw.PFN{tb.Root, root2}
	first := charge(roots[:1], 1)
	v.ReleaseFrameInfo(c, d)
	serial := charge(roots, 1)
	v.ReleaseFrameInfo(c, d)
	want := max(first, serial-first) + serial
	if got := charge(roots, 2); got != want {
		t.Errorf("conflict: charged %d, want largest shard %d + serial %d",
			got, max(first, serial-first), serial)
	}
	if n := v.Stats.RecomputeFallbacks.Load(); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
}
