package migrate

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/pgtable"
)

// relocateRef is RelocateTables read one entry at a time with ReadPTE:
// the reference the table views must match.
func relocateRef(mem *hw.PhysMem, roots []hw.PFN, delta int64) {
	for _, root := range roots {
		newRoot := hw.PFN(int64(root) + delta)
		for pdi := 0; pdi < hw.PTEntries; pdi++ {
			pde := hw.ReadPTE(mem, newRoot, pdi)
			if !pde.Present() {
				continue
			}
			newPT := hw.PFN(int64(pde.Frame()) + delta)
			hw.WritePTE(mem, newRoot, pdi, hw.MakePTE(newPT, pde.Flags()))
			for pti := 0; pti < hw.PTEntries; pti++ {
				if pte := hw.ReadPTE(mem, newPT, pti); pte.Present() {
					hw.WritePTE(mem, newPT, pti,
						hw.MakePTE(hw.PFN(int64(pte.Frame())+delta), pte.Flags()))
				}
			}
		}
	}
}

// RelocateTables over table frames mapped copy-on-write, as fork.Clone
// maps a base image, promotes each table on its first rewrite mid-walk.
// It must leave every table frame as per-entry reads would.
func TestRelocateTablesOverCoWTree(t *testing.T) {
	const memBytes, delta = 8 << 20, 1000
	src := hw.NewPhysMem(memBytes)
	alloc := hw.NewFrameAllocator(1, 500)
	wr := pgtable.DirectWriter(src)
	var roots, tables []hw.PFN
	for r := 0; r < 2; r++ {
		tb, err := pgtable.New(src, alloc.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			va := hw.VirtAddr(0x0800_0000 + i*0x0003_1000 + r<<hw.PDShift)
			if err := tb.Map(va, hw.PFN(600+i), hw.PTEWrite|hw.PTEUser, alloc.Alloc, wr); err != nil {
				t.Fatal(err)
			}
		}
		roots = append(roots, tb.Root)
		tables = append(tables, tb.TableFrames()...)
	}
	// The base image: each table frame's bytes, shared by both copies.
	mapBase := func(mem *hw.PhysMem) {
		for _, pfn := range tables {
			if err := mem.MapShared(pfn+delta, bytes.Clone(src.FrameBytesRO(pfn)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := hw.NewMachine(hw.Config{MemBytes: memBytes, NumCPUs: 1})
	ref := hw.NewPhysMem(memBytes)
	mapBase(m.Mem)
	mapBase(ref)

	RelocateTables(m.BootCPU(), m.Mem, roots, delta)
	relocateRef(ref, roots, delta)

	if m.Mem.SharedFrames() != 0 {
		t.Fatalf("%d table frames still shared after relocation", m.Mem.SharedFrames())
	}
	for _, pfn := range tables {
		if !bytes.Equal(m.Mem.FrameBytesRO(pfn+delta), ref.FrameBytesRO(pfn+delta)) {
			t.Fatalf("relocated table frame %d differs from the per-entry reference", pfn+delta)
		}
	}
	// A spot check that the reference itself relocated.
	if w, ok := hw.Walk(ref, roots[1]+delta, 0x0840_0000); !ok || w.PTE.Frame() != 600+delta {
		t.Fatalf("reference walk = %+v, %v", w, ok)
	}
}
