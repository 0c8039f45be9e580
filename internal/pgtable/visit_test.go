package pgtable

import (
	"slices"
	"testing"

	"repro/internal/hw"
)

// mapAll builds a tree mapping each of vas to a distinct frame.
func mapAll(tb testing.TB, vas []hw.VirtAddr) *Tables {
	tb.Helper()
	mem, alloc := testEnv()
	t, err := New(mem, alloc.Alloc)
	if err != nil {
		tb.Fatal(err)
	}
	wr := DirectWriter(mem)
	for i, va := range vas {
		if err := t.Map(va, hw.PFN(2000+i), hw.PTEUser, alloc.Alloc, wr); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// collect returns the mappings a walk hands its callback, stopping after
// stop of them when stop > 0.
func collect(walk func(fn func(Mapping) bool), stop int) []Mapping {
	var out []Mapping
	walk(func(m Mapping) bool {
		out = append(out, m)
		return stop <= 0 || len(out) < stop
	})
	return out
}

// filtered is the reference VisitRange: a whole-tree Visit that skips
// every mapping outside [lo, hi).
func filtered(t *Tables, lo, hi hw.VirtAddr, stop int) []Mapping {
	return collect(func(fn func(Mapping) bool) {
		t.Visit(func(m Mapping) bool {
			if m.VA < lo || m.VA >= hi {
				return true
			}
			return fn(m)
		})
	}, stop)
}

func TestVisitRange(t *testing.T) {
	vas := []hw.VirtAddr{
		0x0000_0000,
		0x0800_0000, 0x0800_1000, 0x0800_2000, 0x0800_3000, 0x0800_5000,
		0x083F_F000, 0x0840_0000, // the last entry of one table, the first of the next
		0x08C0_3000, // past a directory entry with no table
		0xC000_0000,
		0xFFC0_0000, 0xFFFF_F000, // the last table, up to the last page
	}
	tb := mapAll(t, vas)
	cases := []struct {
		name   string
		lo, hi hw.VirtAddr
		stop   int
		want   []hw.VirtAddr
	}{
		{"inside one table", 0x0800_1000, 0x0800_4000, 0,
			[]hw.VirtAddr{0x0800_1000, 0x0800_2000, 0x0800_3000}},
		{"across directory entries", 0x0800_5000, 0x0900_0000, 0,
			[]hw.VirtAddr{0x0800_5000, 0x083F_F000, 0x0840_0000, 0x08C0_3000}},
		{"table boundary", 0x083F_F000, 0x0840_1000, 0,
			[]hw.VirtAddr{0x083F_F000, 0x0840_0000}},
		{"unaligned lo excludes its page", 0x0800_1001, 0x0800_3000, 0,
			[]hw.VirtAddr{0x0800_2000}},
		{"unaligned hi includes its page", 0x0800_1000, 0x0800_3001, 0,
			[]hw.VirtAddr{0x0800_1000, 0x0800_2000, 0x0800_3000}},
		{"both inside one page", 0x0800_2001, 0x0800_2FFF, 0, nil},
		{"from zero", 0, 0x0800_1000, 0,
			[]hw.VirtAddr{0x0000_0000, 0x0800_0000}},
		{"empty", 0x0800_2000, 0x0800_2000, 0, nil},
		{"inverted", 0x0800_3000, 0x0800_1000, 0, nil},
		{"no tables in range", 0x1000_0000, 0xB000_0000, 0, nil},
		{"hi at the top", 0xFFC0_0000, 0xFFFF_FFFF, 0,
			[]hw.VirtAddr{0xFFC0_0000, 0xFFFF_F000}},
		{"lo in the last page", 0xFFFF_F001, 0xFFFF_FFFF, 0, nil},
		{"whole space", 0, 0xFFFF_FFFF, 0, vas},
		{"fn stops the walk", 0x0800_0000, 0xFFFF_FFFF, 3,
			[]hw.VirtAddr{0x0800_0000, 0x0800_1000, 0x0800_2000}},
		{"fn stops across a table", 0x0800_5000, 0xFFFF_FFFF, 3,
			[]hw.VirtAddr{0x0800_5000, 0x083F_F000, 0x0840_0000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(func(fn func(Mapping) bool) { tb.VisitRange(tc.lo, tc.hi, fn) }, tc.stop)
			var gotVAs []hw.VirtAddr
			for _, m := range got {
				gotVAs = append(gotVAs, m.VA)
			}
			if !slices.Equal(gotVAs, tc.want) {
				t.Fatalf("VisitRange(%#x, %#x) = %#x, want %#x", tc.lo, tc.hi, gotVAs, tc.want)
			}
			if want := filtered(tb, tc.lo, tc.hi, tc.stop); !slices.Equal(got, want) {
				t.Fatalf("VisitRange(%#x, %#x) = %+v, filtered Visit = %+v", tc.lo, tc.hi, got, want)
			}
		})
	}
}

// FuzzVisitRange checks VisitRange against a whole-tree Visit filtered
// to [lo, hi), callback for callback, on a tree of the fuzzed pages.
// Each three bytes of pages name one virtual page.
func FuzzVisitRange(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0x80, 0, 0xFF, 0xFF, 0x0F}, uint32(0), uint32(0xFFFF_FFFF), uint8(0))
	f.Add([]byte{0xFF, 0x03, 0x02, 0x00, 0x04, 0x02, 0x05, 0x04, 0x02}, uint32(0x0080_3000), uint32(0x0081_0001), uint8(2))
	f.Add([]byte{0x00, 0x00, 0x0C, 0xFF, 0xFF, 0x0F}, uint32(0xFFFF_F001), uint32(0xFFFF_FFFF), uint8(0))
	f.Add([]byte{0x10, 0x00, 0x00}, uint32(0x0001_0000), uint32(0x0001_0000), uint8(1))
	f.Fuzz(func(t *testing.T, pages []byte, lo, hi uint32, stop uint8) {
		if len(pages) > 3*64 {
			pages = pages[:3*64]
		}
		var vas []hw.VirtAddr
		for i := 0; i+3 <= len(pages); i += 3 {
			vpn := hw.VPN(pages[i]) | hw.VPN(pages[i+1])<<8 | hw.VPN(pages[i+2]&0x0F)<<16
			vas = append(vas, vpn.Addr())
		}
		tb := mapAll(t, vas)
		l, h := hw.VirtAddr(lo), hw.VirtAddr(hi)
		got := collect(func(fn func(Mapping) bool) { tb.VisitRange(l, h, fn) }, int(stop))
		if want := filtered(tb, l, h, int(stop)); !slices.Equal(got, want) {
			t.Fatalf("VisitRange(%#x, %#x) stop %d:\n got %+v\nwant %+v", l, h, stop, got, want)
		}
	})
}

// mixTree builds a tree shaped like a long kernel-mix process: a few
// text, data and stack pages, an mmap cursor that has left dirs page
// tables behind it each holding one page, and a live 8-page region at
// the cursor, which it returns.
func mixTree(tb testing.TB, dirs int) (t *Tables, lo, hi hw.VirtAddr) {
	var vas []hw.VirtAddr
	for i := 0; i < 8; i++ {
		vas = append(vas, 0x0804_8000+hw.VirtAddr(i)<<hw.PageShift, 0xBFFF_0000+hw.VirtAddr(i)<<hw.PageShift)
	}
	cursor := hw.VirtAddr(0x4000_0000)
	for i := 0; i < dirs; i++ {
		vas = append(vas, cursor)
		cursor += 1 << hw.PDShift
	}
	lo = cursor - 8<<hw.PageShift
	for va := lo; va < cursor; va += hw.PageSize {
		vas = append(vas, va)
	}
	return mapAll(tb, vas), lo, cursor
}

// visited keeps the benchmarks' walks from being optimised away.
var visited int

func BenchmarkVisit(b *testing.B) {
	tb, _, _ := mixTree(b, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Visit(func(Mapping) bool { visited++; return true })
	}
}

func BenchmarkVisitRange(b *testing.B) {
	tb, lo, hi := mixTree(b, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.VisitRange(lo, hi, func(Mapping) bool { visited++; return true })
	}
}
