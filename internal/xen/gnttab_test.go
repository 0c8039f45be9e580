package xen

import (
	"testing"
)

// TestGrantAccessFreeListReuse is the regression test for the linear
// scan the free-list replaced: ending grants in a fragmented table must
// hand their refs back for O(1) reuse, and allocation cost must not
// depend on table occupancy.
func TestGrantAccessFreeListReuse(t *testing.T) {
	_, _, dU, c := twoDomains(t)
	pfn := dU.Frames.Alloc()

	// Fill a table, then punch holes in the middle.
	refs := make([]GrantRef, 64)
	for i := range refs {
		refs[i] = dU.GrantAccess(c, 0, pfn, true)
	}
	freed := []GrantRef{refs[3], refs[17], refs[40]}
	for _, ref := range freed {
		if err := dU.GrantEnd(c, ref); err != nil {
			t.Fatal(err)
		}
	}
	tableLen := len(dU.grants)

	// The next allocations must reuse the freed refs (LIFO) without
	// growing the table.
	for i := len(freed) - 1; i >= 0; i-- {
		got := dU.GrantAccess(c, 0, pfn, true)
		if got != freed[i] {
			t.Fatalf("alloc %d: got ref %d, want recycled %d", i, got, freed[i])
		}
	}
	if len(dU.grants) != tableLen {
		t.Fatalf("table grew to %d during reuse (was %d)", len(dU.grants), tableLen)
	}

	// O(1): granting from the heavily fragmented table costs the same
	// cycles as from the fresh one.
	for i := 0; i < 1000; i++ {
		dU.GrantAccess(c, 0, pfn, true)
	}
	for _, ref := range refs[4:16] {
		dU.GrantEnd(c, ref)
	}
	before := c.Now()
	dU.GrantAccess(c, 0, pfn, true)
	fragCost := c.Now() - before
	before = c.Now()
	dU.GrantAccess(c, 0, pfn, true)
	if freshCost := c.Now() - before; fragCost != freshCost {
		t.Fatalf("fragmented alloc cost %d != %d — allocation scales with occupancy",
			fragCost, freshCost)
	}
}

func TestGrantEndRejectsMappedAndInvalid(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	pfn := dU.Frames.Alloc()
	ref := dU.GrantAccess(c, d0.ID, pfn, true)
	_, unmap, err := v.GrantMap(c, d0, dU.ID, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dU.GrantEnd(c, ref); err == nil {
		t.Fatal("ended a grant that is still mapped")
	}
	unmap()
	if err := dU.GrantEnd(c, ref); err != nil {
		t.Fatal(err)
	}
	if err := dU.GrantEnd(c, ref); err == nil {
		t.Fatal("double GrantEnd accepted")
	}
	if err := dU.GrantEnd(c, GrantRef(9999)); err == nil {
		t.Fatal("out-of-range GrantEnd accepted")
	}
}

func TestGrantMapBatchAllOrNothing(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	refs := make([]GrantRef, 4)
	for i := range refs {
		refs[i] = dU.GrantAccess(c, d0.ID, dU.Frames.Alloc(), true)
	}
	bad := append(append([]GrantRef{}, refs...), GrantRef(9999))
	if _, _, err := v.GrantMapBatch(c, d0, dU.ID, bad, false); err == nil {
		t.Fatal("batch with a bad ref succeeded")
	}
	for _, ref := range refs {
		if dU.grants[ref].mapped != 0 {
			t.Fatalf("failed batch left grant %d mapped", ref)
		}
	}

	pfns, unmap, err := v.GrantMapBatch(c, d0, dU.ID, refs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pfns) != len(refs) {
		t.Fatalf("mapped %d of %d", len(pfns), len(refs))
	}
	for _, ref := range refs {
		if dU.grants[ref].mapped != 1 {
			t.Fatalf("grant %d mapped=%d, want 1", ref, dU.grants[ref].mapped)
		}
	}
	unmap()
	unmap() // idempotent
	for _, ref := range refs {
		if dU.grants[ref].mapped != 0 {
			t.Fatalf("grant %d still mapped after unmap", ref)
		}
		if err := dU.GrantEnd(c, ref); err != nil {
			t.Fatal(err)
		}
	}
}
