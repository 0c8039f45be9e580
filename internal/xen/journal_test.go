package xen

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/pgtable"
)

// journalWrite performs one native-mode PTE store the way the native VO
// does: record the old value, then write memory.
func journalWrite(v *VMM, j *DirtyJournal, table hw.PFN, idx int, e hw.PTE) {
	j.Record(table, idx, hw.ReadPTE(v.M.Mem, table, idx), e)
	hw.WritePTE(v.M.Mem, table, idx, e)
}

// canonical releases the current accounting and rebuilds it with the
// serial recompute — the reference result for the current memory state.
func canonical(t *testing.T, v *VMM, d *Domain, c *hw.CPU, roots []hw.PFN) *FrameTable {
	t.Helper()
	v.ReleaseFrameInfo(c, d)
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	return v.FT.Clone()
}

func TestJournalReplayMatchesRecompute(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, data := buildTree(t, v, d, 8)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}

	v.JournalDetach(c, d)
	if !j.Recording() {
		t.Fatal("detach did not arm the journal")
	}

	// Native-mode churn: remap one page to a fresh frame, drop the write
	// bit on another, clear a third, and double-write a slot (the replay
	// must condense it).
	s0, _ := tb.ExistingSlot(0x0800_0000)
	s1, _ := tb.ExistingSlot(0x0800_0000 + 1<<hw.PageShift)
	s2, _ := tb.ExistingSlot(0x0800_0000 + 2<<hw.PageShift)
	fresh := d.Frames.Alloc()
	journalWrite(v, j, s0.Table, s0.Index, hw.MakePTE(fresh, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	journalWrite(v, j, s1.Table, s1.Index, hw.MakePTE(data[1], hw.PTEPresent|hw.PTEUser))
	journalWrite(v, j, s2.Table, s2.Index, 0)
	journalWrite(v, j, s2.Table, s2.Index, hw.MakePTE(data[2], hw.PTEPresent|hw.PTEWrite|hw.PTEUser))

	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	st := j.StatsSnapshot()
	if st.Replays != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats after replay: %+v", st)
	}
	if st.ReplaySlots != 3 {
		t.Fatalf("condensation: %d slots replayed, want 3", st.ReplaySlots)
	}
	replayed := v.FT.Clone()
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := canonical(t, v, d, c, roots).Equal(replayed); err != nil {
		t.Fatalf("journal replay diverges from recompute: %v", err)
	}
}

func TestJournalFirstAttachFallsBack(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, _ := buildTree(t, v, d, 4)
	roots := []hw.PFN{tb.Root}
	// No detach has armed the ring: the first attach has no snapshot.
	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	if st := j.StatsSnapshot(); st.Fallbacks != 1 || st.Replays != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if !d.HasPinned(tb.Root) {
		t.Fatal("fallback did not pin the root")
	}
}

func TestJournalOverflowFallsBack(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(2)
	tb, data := buildTree(t, v, d, 6)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	v.JournalDetach(c, d)

	for i := 0; i < 4; i++ {
		s, _ := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + i<<hw.PageShift))
		journalWrite(v, j, s.Table, s.Index, hw.MakePTE(data[i], hw.PTEPresent|hw.PTEUser))
	}
	if st := j.StatsSnapshot(); st.Overflows != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	if st := j.StatsSnapshot(); st.Fallbacks != 1 || st.Replays != 0 {
		t.Fatalf("stats: %+v", st)
	}
	replayed := v.FT.Clone()
	if err := canonical(t, v, d, c, roots).Equal(replayed); err != nil {
		t.Fatalf("overflow fallback diverges from recompute: %v", err)
	}
}

func TestJournalStructuralChangeFallsBack(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, _ := buildTree(t, v, d, 4)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	v.JournalDetach(c, d)
	j.RecordStructural() // e.g. a root registered while native
	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	if st := j.StatsSnapshot(); st.Structural != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// A store to a frame the snapshot does not know as an L1 (here: a
// directory) is structural too — the ring cannot replay it.
func TestJournalNonLeafStoreIsStructural(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, _ := buildTree(t, v, d, 4)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	v.JournalDetach(c, d)
	j.Record(tb.Root, 5, 0, 0) // L2 store
	if st := j.StatsSnapshot(); st.Structural != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if j.Len() != 0 {
		t.Fatal("structural store buffered")
	}
}

func TestJournalCorruptionDetectedAndRetryable(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, data := buildTree(t, v, d, 6)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	v.JournalDetach(c, d)
	for i := 0; i < 3; i++ {
		s, _ := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + i<<hw.PageShift))
		journalWrite(v, j, s.Table, s.Index, hw.MakePTE(data[i], hw.PTEPresent|hw.PTEUser))
	}
	before := v.FT.Clone()

	undo, err := j.CorruptEntryPick(func(n int) int { return n / 2 })
	if err != nil {
		t.Fatal(err)
	}
	if err := v.JournalReattach(c, d, roots, 1); err == nil {
		t.Fatal("corrupted journal entry not detected")
	}
	if st := j.StatsSnapshot(); st.ReplayErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Nothing applied: the snapshot is untouched and the ring intact, so
	// undoing the corruption makes the retry succeed (the switch's
	// rollback-and-retry path).
	if err := v.FT.Equal(before); err != nil {
		t.Fatalf("failed replay modified the frame table: %v", err)
	}
	undo()
	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatalf("retry after undo: %v", err)
	}
	if st := j.StatsSnapshot(); st.Replays != 1 {
		t.Fatalf("stats: %+v", st)
	}
	replayed := v.FT.Clone()
	if err := canonical(t, v, d, c, roots).Equal(replayed); err != nil {
		t.Fatalf("retried replay diverges: %v", err)
	}
}

// The perf claim behind the policy: re-attach by replay at ~10% dirty
// must beat the full recompute by at least 5x.
func TestJournalReattachBeatsRecompute(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, data := buildTree(t, v, d, 64)
	roots := []hw.PFN{tb.Root}

	before := c.Now()
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	fullAttach := c.Now() - before

	v.JournalDetach(c, d)
	for i := 0; i < 6; i++ { // ~10% of the 64 mapped pages
		s, _ := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + i<<hw.PageShift))
		journalWrite(v, j, s.Table, s.Index, hw.MakePTE(data[i], hw.PTEPresent|hw.PTEUser))
	}
	before = c.Now()
	if err := v.JournalReattach(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	replayAttach := c.Now() - before
	if replayAttach*5 > fullAttach {
		t.Fatalf("replay attach %d cycles vs full %d: less than 5x win", replayAttach, fullAttach)
	}
}

func TestJournalCheckConsistent(t *testing.T) {
	v, _, _ := testVMM(t)
	j := v.EnableJournal(4)
	if err := j.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	j.Arm()
	if err := j.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	j.entries = append(j.entries, make([]JournalEntry, 5)...) // over capacity
	if err := j.CheckConsistent(); err == nil {
		t.Fatal("inconsistent journal state not reported")
	}
}

// TestJournalRecordReplayAllocFree is the attach-path allocation gate:
// after warm-up (which sizes the reusable replay scratch), a full
// detach / record / replay epoch performs zero heap allocations.
func TestJournalRecordReplayAllocFree(t *testing.T) {
	v, d, c := testVMM(t)
	j := v.EnableJournal(0)
	tb, _ := buildTree(t, v, d, 4)
	roots := []hw.PFN{tb.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}

	// Live L1 slots to store to: same-value writes keep every epoch
	// replayable with zero frame deltas, so the loop body is pure
	// journal mechanism.
	s0, _ := tb.ExistingSlot(0x0800_0000)
	s1, _ := tb.ExistingSlot(0x0800_0000 + 1<<hw.PageShift)
	e0 := hw.ReadPTE(v.M.Mem, s0.Table, s0.Index)
	e1 := hw.ReadPTE(v.M.Mem, s1.Table, s1.Index)

	allocs := testing.AllocsPerRun(50, func() {
		v.JournalDetach(c, d)
		j.Record(s0.Table, s0.Index, e0, e0)
		j.Record(s1.Table, s1.Index, e1, e1)
		j.Record(s0.Table, s0.Index, e0, e0) // superseded: condensed away
		if err := v.JournalReattach(c, d, roots, 1); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("journal record+replay allocates %.1f per run, want 0", allocs)
	}
	if st := j.StatsSnapshot(); st.Fallbacks != 0 {
		t.Fatalf("epochs fell back to recompute: %+v", st)
	}
}

// TestJournalReplayRejectsTypeViolations: a journaled native store the
// ref rule refuses — a live L1 mapped writable, a foreign frame, a
// forged old value whose refs the snapshot does not hold — fails the
// attach with one ReplayErrors and leaves the frame table exactly as
// before, the valid slot replayed ahead of it rolled back. Once the
// store is undone the retry replays.
func TestJournalReplayRejectsTypeViolations(t *testing.T) {
	cases := []struct {
		name string
		// store journals the refused store at slot s and returns its
		// undo, or nil when the store cannot be undone by a native write.
		store func(v *VMM, j *DirtyJournal, d0 *Domain, s pgtable.Slot, data []hw.PFN) func()
	}{
		{"live L1 mapped writable", func(v *VMM, j *DirtyJournal, _ *Domain, s pgtable.Slot, _ []hw.PFN) func() {
			old := hw.ReadPTE(v.M.Mem, s.Table, s.Index)
			journalWrite(v, j, s.Table, s.Index, hw.MakePTE(s.Table, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
			return func() { journalWrite(v, j, s.Table, s.Index, old) }
		}},
		{"foreign frame", func(v *VMM, j *DirtyJournal, d0 *Domain, s pgtable.Slot, _ []hw.PFN) func() {
			old := hw.ReadPTE(v.M.Mem, s.Table, s.Index)
			journalWrite(v, j, s.Table, s.Index, hw.MakePTE(d0.Frames.Alloc(), hw.PTEPresent|hw.PTEUser))
			return func() { journalWrite(v, j, s.Table, s.Index, old) }
		}},
		{"forged read-only old value", func(v *VMM, j *DirtyJournal, _ *Domain, s pgtable.Slot, data []hw.PFN) func() {
			// data[2] holds one writable ref and no untyped one.
			cur := hw.ReadPTE(v.M.Mem, s.Table, s.Index)
			j.Record(s.Table, s.Index, hw.MakePTE(data[2], hw.PTEPresent|hw.PTEUser), cur)
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, d0, dU, c := twoDomains(t)
			j := v.EnableJournal(0)
			tb, data := buildTree(t, v, dU, 4)
			roots := []hw.PFN{tb.Root}
			if err := v.RecomputeFrameInfo(c, dU, roots, 1); err != nil {
				t.Fatal(err)
			}
			v.JournalDetach(c, dU)
			// A valid remap first, so the refused slot has a prefix to
			// roll back.
			s0, _ := tb.ExistingSlot(0x0800_0000)
			s1, _ := tb.ExistingSlot(0x0800_0000 + 1<<hw.PageShift)
			journalWrite(v, j, s0.Table, s0.Index, hw.MakePTE(dU.Frames.Alloc(), hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
			undo := tc.store(v, j, d0, s1, data)
			before := v.FT.Clone()

			if err := v.JournalReattach(c, dU, roots, 1); err == nil {
				t.Fatal("refused store replayed")
			}
			if st := j.StatsSnapshot(); st.ReplayErrors != 1 || st.Replays != 0 {
				t.Fatalf("stats: %+v", st)
			}
			if err := v.FT.Equal(before); err != nil {
				t.Fatalf("failed replay modified the frame table: %v", err)
			}
			if err := v.FT.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if undo == nil {
				return
			}
			undo()
			if err := v.JournalReattach(c, dU, roots, 1); err != nil {
				t.Fatalf("retry after undo: %v", err)
			}
			if st := j.StatsSnapshot(); st.Replays != 1 {
				t.Fatalf("stats: %+v", st)
			}
			replayed := v.FT.Clone()
			if err := canonical(t, v, dU, c, roots).Equal(replayed); err != nil {
				t.Fatalf("retried replay diverges: %v", err)
			}
		})
	}
}

// TestJournalReplayOnTwoCPUs: the keep has no one-CPU limit. On a
// two-CPU host a sharded attach, a journal detach, native churn and a
// re-attach with two workers replay the ring onto the kept epoch, and
// the table equals a from-scratch recompute.
func TestJournalReplayOnTwoCPUs(t *testing.T) {
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
	j := v.EnableJournal(0)
	tb0, data := buildTree(t, v, d, 6)
	tb1, _ := buildTree(t, v, d, 6)
	roots := []hw.PFN{tb0.Root, tb1.Root}
	if err := v.RecomputeFrameInfo(c, d, roots, 2); err != nil {
		t.Fatal(err)
	}
	if err := v.HypNewBaseptr(c, d, tb1.Root); err != nil {
		t.Fatal(err)
	}

	v.JournalDetach(c, d)
	if pfn, ok := v.FT.FirstPinned(); ok || d.HasPinned(tb0.Root) || d.HasPinned(tb1.Root) {
		t.Fatalf("pinned while native: frame %d (%v), roots %v", pfn, ok, d.PinnedRoots())
	}
	for i := 0; i < 3; i++ {
		s, _ := tb0.ExistingSlot(hw.VirtAddr(0x0800_0000 + i<<hw.PageShift))
		journalWrite(v, j, s.Table, s.Index, hw.MakePTE(data[5-i], hw.PTEPresent|hw.PTEUser))
	}
	s, _ := tb1.ExistingSlot(0x0800_0000)
	journalWrite(v, j, s.Table, s.Index, 0)

	if err := v.JournalReattach(c, d, roots, 2); err != nil {
		t.Fatal(err)
	}
	if st := j.StatsSnapshot(); st.Replays != 1 || st.Fallbacks != 0 || st.ReplaySlots != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if !d.HasPinned(tb0.Root) || !d.HasPinned(tb1.Root) || !d.baseHeld || d.baseptr != tb1.Root {
		t.Fatalf("replay left pins %v, base pointer %v on %d", d.PinnedRoots(), d.baseHeld, d.baseptr)
	}
	replayed := v.FT.Clone()
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := canonical(t, v, d, c, roots).Equal(replayed); err != nil {
		t.Fatalf("two-CPU replay diverges from recompute: %v", err)
	}
}
