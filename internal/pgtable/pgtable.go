package pgtable

import (
	"fmt"

	"repro/internal/hw"
)

// WriteFn stores a page-table entry. The guest kernel passes its
// virtualization object's sensitive-memory operation here.
type WriteFn func(table hw.PFN, idx int, e hw.PTE)

// AllocFn allocates a frame for a new page-table page.
type AllocFn func() hw.PFN

// DirectWriter returns a WriteFn that stores entries straight into
// physical memory — what a native kernel (PL0) is allowed to do.
func DirectWriter(mem *hw.PhysMem) WriteFn {
	return func(table hw.PFN, idx int, e hw.PTE) {
		hw.WritePTE(mem, table, idx, e)
	}
}

// Tables is one page-table tree rooted at Root.
type Tables struct {
	Mem  *hw.PhysMem
	Root hw.PFN
}

// New allocates an empty tree.
func New(mem *hw.PhysMem, alloc AllocFn) (*Tables, error) {
	root := alloc()
	if root == hw.NoPFN {
		return nil, fmt.Errorf("pgtable: out of frames for root")
	}
	mem.ZeroFrame(root)
	return &Tables{Mem: mem, Root: root}, nil
}

// Attach wraps an existing tree (e.g., after restoring a checkpoint).
func Attach(mem *hw.PhysMem, root hw.PFN) *Tables {
	return &Tables{Mem: mem, Root: root}
}

// Lookup returns the leaf entry for va.
func (t *Tables) Lookup(va hw.VirtAddr) (hw.PTE, bool) {
	w, ok := hw.Walk(t.Mem, t.Root, va)
	if !ok {
		return w.PTE, false
	}
	return w.PTE, true
}

// Slot describes where a leaf entry lives.
type Slot struct {
	Table hw.PFN
	Index int
}

// SlotFor returns the slot for va, creating the intermediate table with
// alloc/write if needed. The new page-directory entry is stored through
// write so it is validated in virtual mode like any other sensitive store.
func (t *Tables) SlotFor(va hw.VirtAddr, alloc AllocFn, write WriteFn) (Slot, error) {
	pde := hw.ReadPTE(t.Mem, t.Root, hw.PDIndex(va))
	if !pde.Present() {
		pt := alloc()
		if pt == hw.NoPFN {
			return Slot{}, fmt.Errorf("pgtable: out of frames for page table")
		}
		t.Mem.ZeroFrame(pt)
		flags := hw.PTEPresent | hw.PTEWrite
		if va < hw.KernelBase {
			flags |= hw.PTEUser
		}
		write(t.Root, hw.PDIndex(va), hw.MakePTE(pt, flags))
		pde = hw.ReadPTE(t.Mem, t.Root, hw.PDIndex(va))
	}
	return Slot{Table: pde.Frame(), Index: hw.PTIndex(va)}, nil
}

// ExistingSlot returns the slot for va without creating tables.
func (t *Tables) ExistingSlot(va hw.VirtAddr) (Slot, bool) {
	pde := hw.ReadPTE(t.Mem, t.Root, hw.PDIndex(va))
	if !pde.Present() {
		return Slot{}, false
	}
	return Slot{Table: pde.Frame(), Index: hw.PTIndex(va)}, true
}

// Map installs a leaf mapping va -> pfn with flags.
func (t *Tables) Map(va hw.VirtAddr, pfn hw.PFN, flags uint32,
	alloc AllocFn, write WriteFn) error {
	s, err := t.SlotFor(va, alloc, write)
	if err != nil {
		return err
	}
	write(s.Table, s.Index, hw.MakePTE(pfn, flags|hw.PTEPresent))
	return nil
}

// Unmap clears the leaf mapping for va and returns the old entry.
func (t *Tables) Unmap(va hw.VirtAddr, write WriteFn) (hw.PTE, bool) {
	s, ok := t.ExistingSlot(va)
	if !ok {
		return 0, false
	}
	old := hw.ReadPTE(t.Mem, s.Table, s.Index)
	if !old.Present() {
		return old, false
	}
	write(s.Table, s.Index, 0)
	return old, true
}

// Mapping is one present leaf entry reported by Visit.
type Mapping struct {
	VA   hw.VirtAddr
	Slot Slot
	PTE  hw.PTE
}

// Visit calls fn for every present leaf mapping, in address order.
// Returning false stops the walk. It reads the whole directory and every
// present table, one frame load per table.
//
// The walk contract: in this tree, fn may store only to the entry it is
// handed (munmap and exit zero it, fork downgrades it) or to entries
// already visited. Under it the walk sees what per-entry reads would
// (see hw.ViewTable).
func (t *Tables) Visit(fn func(m Mapping) bool) {
	t.walk(0, hw.PTEntries*hw.PTEntries-1, fn)
}

// VisitRange is Visit restricted to the mappings with lo <= VA < hi;
// lo >= hi visits nothing. It reads only the directory entries from
// PDIndex(lo) to PDIndex(hi-1) and, in their tables, only the entries
// in range: its cost is the directory entries in range plus the entries
// in range, not the tree's size. Visit's contract applies.
func (t *Tables) VisitRange(lo, hi hw.VirtAddr, fn func(m Mapping) bool) {
	if lo >= hi {
		return
	}
	first := hw.VPNOf(lo)
	if lo&hw.PageMask != 0 {
		first++ // the page holding an unaligned lo starts below it
	}
	t.walk(first, hw.VPNOf(hi-1), fn)
}

// walk calls fn for every present leaf mapping of a page in [first,
// last], in address order, under Visit's contract.
func (t *Tables) walk(first, last hw.VPN, fn func(m Mapping) bool) {
	const ptBits = hw.PDShift - hw.PageShift
	pd0, pd1 := int(first>>ptBits), int(last>>ptBits)
	root := hw.ViewTable(t.Mem, t.Root)
	for pdi := pd0; pdi <= pd1; pdi++ {
		pde := root.At(pdi)
		if !pde.Present() {
			continue
		}
		pt0, pt1 := 0, hw.PTEntries-1
		if pdi == pd0 {
			pt0 = int(first) & hw.PTIndexMask
		}
		if pdi == pd1 {
			pt1 = int(last) & hw.PTIndexMask
		}
		pt := pde.Frame()
		table := hw.ViewTable(t.Mem, pt)
		for pti := pt0; pti <= pt1; pti++ {
			pte := table.At(pti)
			if !pte.Present() {
				continue
			}
			va := hw.VirtAddr(uint32(pdi)<<hw.PDShift | uint32(pti)<<hw.PageShift)
			if !fn(Mapping{VA: va, Slot: Slot{Table: pt, Index: pti}, PTE: pte}) {
				return
			}
		}
	}
}

// TableFrames returns the root frame followed by every referenced
// page-table frame. The VMM pins exactly this set when the tree is
// installed in direct mode, and Mercury's recompute pass scans it.
func (t *Tables) TableFrames() []hw.PFN {
	out := []hw.PFN{t.Root}
	root := hw.ViewTable(t.Mem, t.Root)
	for pdi := 0; pdi < hw.PTEntries; pdi++ {
		if pde := root.At(pdi); pde.Present() {
			out = append(out, pde.Frame())
		}
	}
	return out
}

// Free releases every table frame (not the mapped data frames) to free.
func (t *Tables) Free(free func(hw.PFN)) {
	root := hw.ViewTable(t.Mem, t.Root)
	for pdi := 0; pdi < hw.PTEntries; pdi++ {
		if pde := root.At(pdi); pde.Present() {
			free(pde.Frame())
		}
	}
	free(t.Root)
}
