package xen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hw"
)

// slotRef is one mapped leaf slot a mutation can target.
type slotRef struct {
	table hw.PFN
	idx   int
}

// TestThreeWayPolicyEquivalence is the §5.1.2 property extended to all
// three tracking policies: for the same seeded history of page-table
// mutations, active tracking, serial recompute, parallel recompute and
// journal replay (or its fallback) all produce bit-identical frame
// accounting.
func TestThreeWayPolicyEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		for _, capacity := range []int{4, DefaultJournalEntries} {
			t.Run(fmt.Sprintf("seed=%d/cap=%d", seed, capacity), func(t *testing.T) {
				threeWayRound(t, seed, capacity)
			})
		}
	}
}

func threeWayRound(t *testing.T, seed int64, capacity int) {
	rng := rand.New(rand.NewSource(seed))
	v, d, c := testVMM(t)

	// A forest of 2-4 trees with random page counts.
	ntrees := 2 + rng.Intn(3)
	var roots []hw.PFN
	var slots []slotRef
	var frames []hw.PFN // legal mapping targets
	for i := 0; i < ntrees; i++ {
		pages := 3 + rng.Intn(10)
		tb, data := buildTree(t, v, d, pages)
		roots = append(roots, tb.Root)
		frames = append(frames, data...)
		for p := 0; p < pages; p++ {
			s, ok := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + p<<hw.PageShift))
			if !ok {
				t.Fatal("missing slot")
			}
			slots = append(slots, slotRef{s.Table, s.Index})
		}
	}
	// newPTE draws a random legal value for a leaf slot: a writable or
	// read-only mapping of a domain frame, or a cleared entry.
	newPTE := func() hw.PTE {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return hw.MakePTE(frames[rng.Intn(len(frames))], hw.PTEPresent|hw.PTEUser)
		default:
			return hw.MakePTE(frames[rng.Intn(len(frames))], hw.PTEPresent|hw.PTEWrite|hw.PTEUser)
		}
	}

	// Phase A — active tracking: pin the forest through the mirror and
	// apply random live updates.
	for _, r := range roots {
		if err := v.MirrorPinRoot(c, d, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8+rng.Intn(12); i++ {
		s := slots[rng.Intn(len(slots))]
		if err := v.MirrorPTEWrite(c, d, MMUUpdate{Table: s.table, Index: s.idx, New: newPTE()}); err != nil {
			t.Fatal(err)
		}
	}
	active := v.FT.Clone()

	// Phase B — serial recompute over the same memory.
	v.ReleaseFrameInfo(c, d)
	if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.FT.Equal(active); err != nil {
		t.Fatalf("serial recompute diverges from active tracking: %v", err)
	}

	// Phase C — parallel recompute.
	v.ReleaseFrameInfo(c, d)
	if err := v.RecomputeFrameInfo(c, d, roots, 2+rng.Intn(3)); err != nil {
		t.Fatal(err)
	}
	if err := v.FT.Equal(active); err != nil {
		t.Fatalf("parallel recompute diverges from active tracking: %v", err)
	}

	// Phase D — journal: detach keeps the accounting's epoch, so the
	// table reads as empty while native; native-mode stores hit memory
	// and the ring, re-attach rewinds and replays (or overflows into the
	// fallback at small capacities). Either way the result must match a
	// from-scratch recompute of the final memory state.
	j := v.EnableJournal(capacity)
	v.JournalDetach(c, d)
	if pfn, ok := v.FT.FirstPinned(); ok {
		t.Fatalf("frame %d pinned while native", pfn)
	}
	for _, r := range roots {
		if d.HasPinned(r) {
			t.Fatalf("root %d pinned while native", r)
		}
	}
	for i := 0; i < 2+rng.Intn(10); i++ {
		s := slots[rng.Intn(len(slots))]
		journalWrite(v, j, s.table, s.idx, newPTE())
	}
	if err := v.JournalReattach(c, d, roots, 2); err != nil {
		t.Fatal(err)
	}
	reattached := v.FT.Clone()
	if err := v.FT.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := canonical(t, v, d, c, roots).Equal(reattached); err != nil {
		st := j.StatsSnapshot()
		t.Fatalf("journal re-attach diverges from recompute (stats %+v): %v", st, err)
	}
}
