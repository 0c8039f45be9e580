package xen

import (
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

	if err := v.RecomputeFrameInfo(c, d, roots); err != nil {
		t.Fatal(err)
	}
	serial := v.FT.Clone()
	v.ReleaseFrameInfo(c, d)

	if err := v.RecomputeFrameInfoParallel(c, d, roots, 4); err != nil {
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
	if err := v.RecomputeFrameInfo(c, d, roots); err != nil {
		t.Fatal(err)
	}
	serial := c.Now() - before
	v.ReleaseFrameInfo(c, d)

	before = c.Now()
	if err := v.RecomputeFrameInfoParallel(c, d, roots, 4); err != nil {
		t.Fatal(err)
	}
	parallel := c.Now() - before
	if parallel*2 >= serial {
		t.Fatalf("parallel recompute (%d) not sub-linear vs serial (%d)", parallel, serial)
	}
}

// Two roots reaching the same L1 make shard-local freshness decisions
// unsound: the merge must detect the typed overlap and redo serially,
// with the serial result.
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

	if err := v.RecomputeFrameInfo(c, d, roots); err != nil {
		t.Fatal(err)
	}
	serial := v.FT.Clone()
	v.ReleaseFrameInfo(c, d)

	if err := v.RecomputeFrameInfoParallel(c, d, roots, 2); err != nil {
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
	if err := v.RecomputeFrameInfoParallel(c, d, roots, 3); err == nil {
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
	if err := v.RecomputeFrameInfoParallel(c, d, roots, 3); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// RecomputeFrameInfoAuto routes small working sets and uniprocessors to
// the serial walk.
func TestRecomputeAutoDispatch(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 3)
	if err := v.RecomputeFrameInfoAuto(c, d, []hw.PFN{tb.Root}, 8); err != nil {
		t.Fatal(err)
	}
	if !d.HasPinned(tb.Root) {
		t.Fatal("auto dispatch (serial path) did not pin")
	}
	v.ReleaseFrameInfo(c, d)
	tb2, _ := buildTree(t, v, d, 3)
	if err := v.RecomputeFrameInfoAuto(c, d, []hw.PFN{tb.Root, tb2.Root}, 2); err != nil {
		t.Fatal(err)
	}
	if !d.HasPinned(tb.Root) || !d.HasPinned(tb2.Root) {
		t.Fatal("auto dispatch (parallel path) did not pin")
	}
}
