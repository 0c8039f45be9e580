package hw

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

func TestPTEEncodeDecode(t *testing.T) {
	e := MakePTE(0x1234, PTEPresent|PTEWrite|PTEUser)
	if !e.Present() || !e.Writable() || !e.UserOK() {
		t.Fatal("flag decode failed")
	}
	if e.Frame() != 0x1234 {
		t.Fatalf("Frame = %#x", e.Frame())
	}
	if e.Cow() {
		t.Fatal("unexpected COW bit")
	}
}

func TestPTEWithFlags(t *testing.T) {
	e := MakePTE(7, PTEPresent|PTEWrite)
	e2 := e.WithFlags(PTEPresent | PTECow)
	if e2.Writable() || !e2.Cow() || e2.Frame() != 7 {
		t.Fatalf("WithFlags produced %#x", uint32(e2))
	}
}

// Property: frame and flags survive a round trip for any input.
func TestPTERoundTrip(t *testing.T) {
	f := func(pfn uint32, flags uint32) bool {
		pfn &= 0x000FFFFF
		flags &= 0xFFF
		e := MakePTE(PFN(pfn), flags)
		return e.Frame() == PFN(pfn) && e.Flags() == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPDIndexPTIndex(t *testing.T) {
	va := VirtAddr(0x0840_3123)
	if PDIndex(va) != 0x21 {
		t.Fatalf("PDIndex = %#x", PDIndex(va))
	}
	if PTIndex(va) != 3 {
		t.Fatalf("PTIndex = %#x", PTIndex(va))
	}
}

func TestWalkTwoLevel(t *testing.T) {
	m := NewPhysMem(4 << 20)
	root := PFN(1)
	pt := PFN(2)
	data := PFN(3)
	va := VirtAddr(0x0800_2000)
	WritePTE(m, root, PDIndex(va), MakePTE(pt, PTEPresent|PTEWrite|PTEUser))
	WritePTE(m, pt, PTIndex(va), MakePTE(data, PTEPresent|PTEWrite|PTEUser))

	w, ok := Walk(m, root, va)
	if !ok {
		t.Fatal("walk failed")
	}
	if w.PTE.Frame() != data || w.Table != pt || w.Index != PTIndex(va) {
		t.Fatalf("walk = %+v", w)
	}

	// Absent PDE.
	if _, ok := Walk(m, root, 0x4000_0000); ok {
		t.Fatal("walk of unmapped PDE succeeded")
	}
	// Present PDE, absent PTE.
	if _, ok := Walk(m, root, va+PageSize); ok {
		t.Fatal("walk of unmapped PTE succeeded")
	}
}

// A walk through a TableView whose callback rewrites the entry it was
// just handed, as fork's downgrade and munmap's clear do, must see and
// leave exactly what per-entry ReadPTE reads would. On the CoW frame the
// first rewrite promotes the frame mid-walk; on the never-written frame
// it allocates the frame's bytes mid-walk.
func TestTableViewMatchesReadPTE(t *testing.T) {
	const table = PFN(3)
	page := make([]byte, PageSize)
	for i := 0; i < PTEntries; i += 3 {
		binary.LittleEndian.PutUint32(page[i*4:], uint32(MakePTE(PFN(100+i), PTEPresent|PTEWrite)))
	}
	shared := bytes.Clone(page)
	setups := []struct {
		name  string
		setup func(m *PhysMem)
	}{
		{"private", func(m *PhysMem) { copy(m.FrameBytes(table), page) }},
		{"cow", func(m *PhysMem) {
			if err := m.MapShared(table, shared, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"never written", func(*PhysMem) {}},
	}
	rewrite := func(i int, e PTE) PTE {
		if e.Present() {
			return e.WithFlags(e.Flags()&^PTEWrite | PTECow)
		}
		if i%100 == 0 {
			return MakePTE(PFN(i), PTEPresent)
		}
		return e
	}
	walk := func(m *PhysMem, read func(i int) PTE) []PTE {
		var seen []PTE
		for i := 0; i < PTEntries; i++ {
			e := read(i)
			seen = append(seen, e)
			if n := rewrite(i, e); n != e {
				WritePTE(m, table, i, n)
			}
		}
		return seen
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			ref, got := NewPhysMem(64<<10), NewPhysMem(64<<10)
			s.setup(ref)
			s.setup(got)
			want := walk(ref, func(i int) PTE { return ReadPTE(ref, table, i) })
			seen := walk(got, ViewTable(got, table).At)
			if !slices.Equal(seen, want) {
				t.Fatal("the view's walk saw other entries than per-entry reads")
			}
			if !bytes.Equal(got.FrameBytesRO(table), ref.FrameBytesRO(table)) {
				t.Fatal("the view's walk left another frame than per-entry reads")
			}
			if got.SharedAt(table) {
				t.Fatal("the rewrites did not promote the frame")
			}
		})
	}
	if !bytes.Equal(shared, page) {
		t.Fatal("a walk wrote through the shared page")
	}
}

// A run of stores through one TableWriter, indices repeated and another
// writer's store in between, must read and leave what per-entry
// ReadPTE/WritePTE calls would, run the promotion hook once and mark the
// frame dirty after every store.
func TestTableWriterMatchesWritePTE(t *testing.T) {
	const table = PFN(3)
	page := make([]byte, PageSize)
	for i := 0; i < PTEntries; i += 5 {
		binary.LittleEndian.PutUint32(page[i*4:], uint32(MakePTE(PFN(100+i), PTEPresent|PTEWrite)))
	}
	setups := []struct {
		name  string
		setup func(m *PhysMem, promoted *int)
	}{
		{"private", func(m *PhysMem, _ *int) { copy(m.FrameBytes(table), page) }},
		{"cow", func(m *PhysMem, promoted *int) {
			if err := m.MapShared(table, bytes.Clone(page), func(PFN) { *promoted++ }); err != nil {
				t.Fatal(err)
			}
		}},
		{"never written", func(*PhysMem, *int) {}},
	}
	idx := []int{0, 5, 5, 1023, 0, 7, 5}
	run := func(m *PhysMem, read func(i int) PTE, store func(i int, e PTE)) []PTE {
		var seen []PTE
		for k, i := range idx {
			seen = append(seen, read(i))
			store(i, MakePTE(PFN(k), PTEPresent|uint32(k)<<1&PTEWrite))
			if !m.frames[table].dirty.Swap(false) {
				t.Fatalf("store %d left the frame clean", k)
			}
			if k == 3 { // another writer's store between two of the run's
				m.WriteWord(table.Addr()+7*4, uint32(MakePTE(77, PTEPresent)))
			}
		}
		return seen
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			var promRef, promGot int
			ref, got := NewPhysMem(64<<10), NewPhysMem(64<<10)
			s.setup(ref, &promRef)
			s.setup(got, &promGot)
			ref.EnableDirtyLog()
			got.EnableDirtyLog()
			want := run(ref, func(i int) PTE { return ReadPTE(ref, table, i) },
				func(i int, e PTE) { WritePTE(ref, table, i, e) })
			var w TableWriter
			seen := run(got, func(i int) PTE {
				if w.b == nil {
					return ReadPTE(got, table, i)
				}
				return w.At(i)
			}, func(i int, e PTE) {
				if w.b == nil {
					w = WriteTable(got, table)
				}
				w.Set(i, e)
			})
			if !slices.Equal(seen, want) {
				t.Fatalf("the writer's run read %v, per-entry reads %v", seen, want)
			}
			if !bytes.Equal(got.FrameBytesRO(table), ref.FrameBytesRO(table)) {
				t.Fatal("the writer's run left another frame than per-entry stores")
			}
			if promGot != promRef || got.SharedAt(table) {
				t.Fatalf("promotion hook ran %d times, per-entry stores %d; still shared %v",
					promGot, promRef, got.SharedAt(table))
			}
		})
	}
}

func TestSelectors(t *testing.T) {
	s := MakeSelector(GDTKernelCode, PL0)
	if s.Index() != GDTKernelCode || s.RPL() != PL0 {
		t.Fatalf("selector decode: %v", s)
	}
	s2 := s.WithRPL(PL1)
	if s2.RPL() != PL1 || s2.Index() != GDTKernelCode {
		t.Fatalf("WithRPL: %v", s2)
	}
}

func TestGDTKernelDPLFlip(t *testing.T) {
	g := NewGDT("test", PL0)
	if g.KernelCS().RPL() != PL0 {
		t.Fatal("fresh GDT kernel CS not PL0")
	}
	g.SetKernelDPL(PL1)
	if g.Entries[GDTKernelCode].DPL != PL1 || g.Entries[GDTKernelData].DPL != PL1 {
		t.Fatal("SetKernelDPL did not update descriptors")
	}
	// User and VMM descriptors untouched.
	if g.Entries[GDTUserCode].DPL != PL3 || g.Entries[GDTVMMCode].DPL != PL0 {
		t.Fatal("SetKernelDPL touched other descriptors")
	}
}

func TestIDTSetGet(t *testing.T) {
	idt := NewIDT("test")
	called := false
	idt.Set(14, Gate{Present: true, Target: PL0,
		Handler: func(c *CPU, f *TrapFrame) { called = true }})
	g := idt.Get(14)
	if !g.Present {
		t.Fatal("gate not present")
	}
	g.Handler(nil, nil)
	if !called {
		t.Fatal("handler not invoked")
	}
	if idt.Get(15).Present {
		t.Fatal("empty gate reads present")
	}
}
