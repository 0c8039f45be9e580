package xen

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/pgtable"
)

// testVMM builds an active VMM with one unprivileged domain.
func testVMM(t testing.TB) (*VMM, *Domain, *hw.CPU) {
	t.Helper()
	return testVMMSized(t, 32<<20)
}

// testVMMSized is testVMM on a machine of memBytes.
func testVMMSized(t testing.TB, memBytes uint64) (*VMM, *Domain, *hw.CPU) {
	t.Helper()
	h, err := BootHost(hw.Config{MemBytes: memBytes, NumCPUs: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.V.CreateDomain("guest", hw.PFN(h.M.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	h.V.SetCurrent(h.C, d)
	return h.V, d, h.C
}

// buildTree creates a small page-table tree in d's frames with n mapped
// pages, returning the tables and mapped data frames.
func buildTree(t testing.TB, v *VMM, d *Domain, n int) (*pgtable.Tables, []hw.PFN) {
	t.Helper()
	tb, err := pgtable.New(v.M.Mem, d.Frames.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	wr := pgtable.DirectWriter(v.M.Mem)
	var data []hw.PFN
	for i := 0; i < n; i++ {
		pfn := d.Frames.Alloc()
		data = append(data, pfn)
		va := hw.VirtAddr(0x0800_0000 + i<<hw.PageShift)
		if err := tb.Map(va, pfn, hw.PTEWrite|hw.PTEUser, d.Frames.Alloc, wr); err != nil {
			t.Fatal(err)
		}
	}
	return tb, data
}

func TestPinValidatesTree(t *testing.T) {
	v, d, c := testVMM(t)
	tb, data := buildTree(t, v, d, 5)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if !d.HasPinned(tb.Root) {
		t.Fatal("root not recorded as pinned")
	}
	ri := v.FT.Get(tb.Root)
	if ri.Type != FrameL2 || !ri.Pinned {
		t.Fatalf("root info: %+v", ri)
	}
	for _, pfn := range data {
		fi := v.FT.Get(pfn)
		if fi.Type != FrameWritable || fi.TotalRefs != 1 {
			t.Fatalf("data frame %d: %+v", pfn, fi)
		}
	}
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinReleasesEverything(t *testing.T) {
	v, d, c := testVMM(t)
	tb, data := buildTree(t, v, d, 5)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.HypUnpinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range append(data, tb.Root) {
		fi := v.FT.Get(pfn)
		if fi.TypeCount != 0 || fi.TotalRefs != 0 || fi.Pinned {
			t.Fatalf("frame %d not released: %+v", pfn, fi)
		}
	}
}

func TestMMUUpdateOnUnvalidatedTableFails(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	// Not pinned: no typed ref -> updates must be rejected.
	err := v.HypMMUUpdate(c, d, []MMUUpdate{{Table: tb.Root, Index: 0, New: 0}})
	if err == nil {
		t.Fatal("update to unvalidated table accepted")
	}
}

func TestMMUUpdateRejectsWritablePageTable(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 2)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	// Find the L1 frame and try to map it writable: the central safety
	// property of direct-mode paging.
	s, ok := tb.ExistingSlot(0x0800_0000)
	if !ok {
		t.Fatal("missing slot")
	}
	bad := hw.MakePTE(s.Table, hw.PTEPresent|hw.PTEWrite|hw.PTEUser)
	err := v.HypMMUUpdate(c, d, []MMUUpdate{{Table: s.Table, Index: 9, New: bad}})
	if err == nil {
		t.Fatal("page table mapped writable")
	}
	// Read-only mapping of the same frame is fine.
	ro := hw.MakePTE(s.Table, hw.PTEPresent|hw.PTEUser)
	if err := v.HypMMUUpdate(c, d, []MMUUpdate{{Table: s.Table, Index: 9, New: ro}}); err != nil {
		t.Fatal(err)
	}
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMMUUpdateRefMovement(t *testing.T) {
	v, d, c := testVMM(t)
	tb, data := buildTree(t, v, d, 2)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	s, _ := tb.ExistingSlot(0x0800_0000)
	// Replace the first mapping with a fresh frame.
	fresh := d.Frames.Alloc()
	err := v.HypMMUUpdate(c, d, []MMUUpdate{{
		Table: s.Table, Index: s.Index,
		New: hw.MakePTE(fresh, hw.PTEPresent|hw.PTEWrite|hw.PTEUser),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fi := v.FT.Get(data[0]); fi.TotalRefs != 0 || fi.TypeCount != 0 {
		t.Fatalf("old frame still referenced: %+v", fi)
	}
	if fi := v.FT.Get(fresh); fi.TotalRefs != 1 || fi.Type != FrameWritable {
		t.Fatalf("new frame not referenced: %+v", fi)
	}
}

func TestMMUUpdateForeignFrameRejected(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	s, _ := tb.ExistingSlot(0x0800_0000)
	// A frame owned by the VMM itself must be unreachable.
	vmmLo, _ := v.Reserved.Range()
	bad := hw.MakePTE(vmmLo, hw.PTEPresent|hw.PTEWrite|hw.PTEUser)
	// Owner is DomVMM, which refMapping treats as shared-read; make a
	// frame owned by another domain instead.
	other := v.FT
	_ = other
	v.FT.SetOwner(vmmLo, 42)
	if err := v.HypMMUUpdate(c, d, []MMUUpdate{{Table: s.Table, Index: 7, New: bad}}); err == nil {
		t.Fatal("foreign frame mapped")
	}
}

func TestNewBaseptrAutoPins(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.HypNewBaseptr(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if c.ReadCR3() != tb.Root {
		t.Fatal("CR3 not installed")
	}
	if !d.HasPinned(tb.Root) {
		t.Fatal("auto-pin missing")
	}
	if d.VCPU0().CR3() != tb.Root {
		t.Fatal("vcpu CR3 not recorded")
	}
}

// The central §5.1.2 property: recompute-on-switch reproduces exactly
// the accounting active tracking maintains.
func TestRecomputeMatchesActiveTracking(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 8)
	tb2, _ := buildTree(t, v, d, 3)

	// Active path: pin both trees, do some live updates via mirror.
	if err := v.MirrorPinRoot(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.MirrorPinRoot(c, d, tb2.Root); err != nil {
		t.Fatal(err)
	}
	fresh := d.Frames.Alloc()
	s, _ := tb.ExistingSlot(0x0800_0000)
	if err := v.MirrorPTEWrite(c, d, MMUUpdate{Table: s.Table, Index: s.Index,
		New: hw.MakePTE(fresh, hw.PTEPresent|hw.PTEUser)}); err != nil {
		t.Fatal(err)
	}
	active := v.FT.Clone()

	// Recompute path: drop everything, rebuild from the same tables.
	v.ReleaseFrameInfo(c, d)
	if err := v.RecomputeFrameInfo(c, d, []hw.PFN{tb.Root, tb2.Root}, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.FT.Equal(active); err != nil {
		t.Fatalf("recompute diverges from active tracking: %v", err)
	}
}

func TestContextSwitchHypercall(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.HypContextSwitch(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if c.ReadCR3() != tb.Root {
		t.Fatal("context switch did not load CR3")
	}
}

func TestReleaseFrameInfoCheap(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 64)
	before := c.Now()
	if err := v.RecomputeFrameInfo(c, d, []hw.PFN{tb.Root}, 1); err != nil {
		t.Fatal(err)
	}
	attach := c.Now() - before
	before = c.Now()
	v.ReleaseFrameInfo(c, d)
	detach := c.Now() - before
	if detach >= attach {
		t.Fatalf("detach (%d) not cheaper than attach (%d)", detach, attach)
	}
}

// TestReleaseKeepsForgedRecord: a record forged through FrameTable.Set
// as the chaos frametable-bitflip fault forges it (pinned, type count
// 0) must still fail CheckInvariants after a detach's release; a reset
// of the touched frames would erase it.
func TestReleaseKeepsForgedRecord(t *testing.T) {
	v, d, c := testVMM(t)
	roots := buildForest(t, v, d, 2, 8)
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	victim := d.Frames.Alloc()
	fi := v.FT.Get(victim)
	fi.Pinned, fi.TypeCount = true, 0
	v.FT.Set(victim, fi)
	v.ReleaseFrameInfo(c, d)
	if err := v.FT.CheckInvariants(); err == nil {
		t.Fatal("the release erased the forged record")
	}
	if got := v.FT.Get(victim); got != fi {
		t.Fatalf("forged record %+v became %+v", fi, got)
	}
	for _, r := range roots {
		if got := v.FT.Get(r); got.TypeCount != 0 || got.TotalRefs != 0 || got.Pinned {
			t.Fatalf("root %d not released: %+v", r, got)
		}
	}
}

// TestL1RunStoresLandPerEntryUnderRun: on two CPUs, an L1 run whose
// charges would reach the hand-over point charges store by store, so
// the other CPU, reading the table as its own clock advances, sees the
// run's stores land one at a time, not all at once. cpu0 re-flags 64
// entries of one L1 read-only in one HypMMUUpdate while cpu1 steps its
// clock 10 cycles at a time and counts the read-only entries.
func TestL1RunStoresLandPerEntryUnderRun(t *testing.T) {
	const n = 64
	h, err := BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	v, c := h.V, h.C
	d, err := v.CreateDomain("guest", hw.PFN(h.M.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, d)
	tb, _ := buildTree(t, v, d, n)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	run := make([]MMUUpdate, n)
	for i := range run {
		s, _ := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + i<<hw.PageShift))
		e := hw.ReadPTE(v.M.Mem, s.Table, s.Index)
		run[i] = MMUUpdate{Table: s.Table, Index: s.Index, New: e.WithFlags(e.Flags() &^ hw.PTEWrite)}
	}
	var seen []int // cpu1's count of stored entries at each step
	h.M.Run(func(c *hw.CPU) {
		if c.ID == 0 {
			if err := v.HypMMUUpdate(c, d, run); err != nil {
				t.Error(err)
			}
			return
		}
		for stored := 0; stored < n && len(seen) < 1_000_000; {
			c.Charge(10)
			stored = 0
			for _, u := range run {
				if !hw.ReadPTE(v.M.Mem, u.Table, u.Index).Writable() {
					stored++
				}
			}
			seen = append(seen, stored)
		}
	})
	partial := 0
	for _, k := range seen {
		if k > 0 && k < n {
			partial++
		}
	}
	if partial == 0 || seen[len(seen)-1] != n {
		t.Fatalf("cpu1 saw %d steps with part of the run stored (last count %d of %d); want the stores to land one at a time",
			partial, seen[len(seen)-1], n)
	}
}
