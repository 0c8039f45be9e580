package pgtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func testEnv() (*hw.PhysMem, *hw.FrameAllocator) {
	mem := hw.NewPhysMem(16 << 20)
	return mem, hw.NewFrameAllocator(1, mem.NumFrames())
}

func TestMapLookupUnmap(t *testing.T) {
	mem, alloc := testEnv()
	tb, err := New(mem, alloc.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	wr := DirectWriter(mem)
	va := hw.VirtAddr(0x0800_3000)
	data := alloc.Alloc()

	if err := tb.Map(va, data, hw.PTEWrite|hw.PTEUser, alloc.Alloc, wr); err != nil {
		t.Fatal(err)
	}
	pte, ok := tb.Lookup(va)
	if !ok || pte.Frame() != data || !pte.Writable() {
		t.Fatalf("lookup = %#x, %v", uint32(pte), ok)
	}
	old, ok := tb.Unmap(va, wr)
	if !ok || old.Frame() != data {
		t.Fatal("unmap did not return old entry")
	}
	if _, ok := tb.Lookup(va); ok {
		t.Fatal("entry survives unmap")
	}
}

func TestSlotForCreatesIntermediate(t *testing.T) {
	mem, alloc := testEnv()
	tb, _ := New(mem, alloc.Alloc)
	wr := DirectWriter(mem)
	before := alloc.InUse()
	s, err := tb.SlotFor(0x4000_0000, alloc.Alloc, wr)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.InUse() != before+1 {
		t.Fatal("intermediate table not allocated")
	}
	// Second call reuses the table.
	s2, _ := tb.SlotFor(0x4000_1000, alloc.Alloc, wr)
	if s2.Table != s.Table {
		t.Fatal("second slot allocated a new table")
	}
}

func TestVisitOrderAndCount(t *testing.T) {
	mem, alloc := testEnv()
	tb, _ := New(mem, alloc.Alloc)
	wr := DirectWriter(mem)
	vas := []hw.VirtAddr{0x0800_0000, 0x0800_5000, 0x4000_0000, 0xB000_0000}
	for _, va := range vas {
		if err := tb.Map(va, alloc.Alloc(), hw.PTEUser, alloc.Alloc, wr); err != nil {
			t.Fatal(err)
		}
	}
	var seen []hw.VirtAddr
	tb.Visit(func(m Mapping) bool {
		seen = append(seen, m.VA)
		return true
	})
	if len(seen) != len(vas) {
		t.Fatalf("visited %d, want %d", len(seen), len(vas))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("visit out of address order")
		}
	}
}

func TestTableFrames(t *testing.T) {
	mem, alloc := testEnv()
	tb, _ := New(mem, alloc.Alloc)
	wr := DirectWriter(mem)
	tb.Map(0x0800_0000, alloc.Alloc(), 0, alloc.Alloc, wr)
	tb.Map(0x4000_0000, alloc.Alloc(), 0, alloc.Alloc, wr)
	frames := tb.TableFrames()
	if len(frames) != 3 { // root + 2 PTs
		t.Fatalf("TableFrames = %d, want 3", len(frames))
	}
	if frames[0] != tb.Root {
		t.Fatal("root not first")
	}
}

func TestFreeReturnsTables(t *testing.T) {
	mem, alloc := testEnv()
	tb, _ := New(mem, alloc.Alloc)
	wr := DirectWriter(mem)
	tb.Map(0x0800_0000, alloc.Alloc(), 0, alloc.Alloc, wr)
	used := alloc.InUse()
	freed := 0
	tb.Free(func(pfn hw.PFN) { freed++; alloc.Free(pfn) })
	if freed != 2 { // root + 1 PT
		t.Fatalf("freed %d table frames", freed)
	}
	if alloc.InUse() != used-2 {
		t.Fatal("allocator accounting off")
	}
}

// Property: after a random map/unmap sequence, the hardware walker
// agrees with a shadow map for every page.
func TestRandomOpsWalkerAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem, alloc := testEnv()
		tb, _ := New(mem, alloc.Alloc)
		wr := DirectWriter(mem)
		shadow := make(map[hw.VirtAddr]hw.PFN)
		for op := 0; op < 200; op++ {
			va := hw.VirtAddr(rng.Intn(64)) << hw.PageShift
			va += hw.VirtAddr(rng.Intn(4)) << hw.PDShift
			if rng.Intn(3) == 0 {
				tb.Unmap(va, wr)
				delete(shadow, va)
			} else {
				pfn := hw.PFN(1000 + rng.Intn(500))
				if err := tb.Map(va, pfn, hw.PTEUser, alloc.Alloc, wr); err != nil {
					return false
				}
				shadow[va] = pfn
			}
		}
		// Full agreement check via the hardware walker.
		count := 0
		tb.Visit(func(m Mapping) bool {
			count++
			want, ok := shadow[m.VA]
			return ok && want == m.PTE.Frame()
		})
		if count != len(shadow) {
			return false
		}
		for va, want := range shadow {
			w, ok := hw.Walk(mem, tb.Root, va)
			if !ok || w.PTE.Frame() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
