package hw

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func cowPage(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestMapSharedReadsWithoutCopy(t *testing.T) {
	m := NewPhysMem(1 << 20)
	shared := cowPage(0x5A)
	if err := m.MapShared(3, shared, nil); err != nil {
		t.Fatal(err)
	}
	if m.SharedFrames() != 1 || !m.SharedAt(3) {
		t.Fatal("mapping not registered")
	}
	if got := m.Load8(PFN(3).Addr() + 7); got != 0x5A {
		t.Fatalf("read through mapping = %#x", got)
	}
	// Reads must alias the shared page, not copy it.
	if &m.FrameBytesRO(3)[0] != &shared[0] {
		t.Fatal("FrameBytesRO copied the shared page")
	}
	if m.SharedAt(3) != true || m.SharedFrames() != 1 {
		t.Fatal("read promoted the frame")
	}
}

func TestMapSharedPromoteOnWrite(t *testing.T) {
	m := NewPhysMem(1 << 20)
	shared := cowPage(0x5A)
	var hooked []PFN
	if err := m.MapShared(3, shared, func(pfn PFN) { hooked = append(hooked, pfn) }); err != nil {
		t.Fatal(err)
	}
	m.Store8(PFN(3).Addr()+1, 0xEE)
	if m.SharedAt(3) {
		t.Fatal("write did not promote")
	}
	if len(hooked) != 1 || hooked[0] != 3 {
		t.Fatalf("promotion hook calls = %v, want [3]", hooked)
	}
	// The private copy holds shared content plus the write; the shared
	// page itself is untouched.
	if got := m.Load8(PFN(3).Addr()); got != 0x5A {
		t.Fatalf("promoted frame byte 0 = %#x", got)
	}
	if got := m.Load8(PFN(3).Addr() + 1); got != 0xEE {
		t.Fatalf("promoted frame byte 1 = %#x", got)
	}
	if shared[1] != 0x5A {
		t.Fatal("write leaked through to the shared page")
	}
	// A second write must not re-run the hook.
	m.Store8(PFN(3).Addr()+2, 0x11)
	if len(hooked) != 1 {
		t.Fatal("hook ran twice")
	}
}

func TestMapSharedZeroFrameDropsMapping(t *testing.T) {
	m := NewPhysMem(1 << 20)
	hooks := 0
	if err := m.MapShared(4, cowPage(0x77), func(PFN) { hooks++ }); err != nil {
		t.Fatal(err)
	}
	m.ZeroFrame(4)
	if m.SharedAt(4) {
		t.Fatal("ZeroFrame left the mapping")
	}
	if hooks != 1 {
		t.Fatalf("ZeroFrame ran hook %d times, want 1", hooks)
	}
	if !bytes.Equal(m.FrameBytesRO(4), make([]byte, PageSize)) {
		t.Fatal("zeroed frame not zero")
	}
}

func TestScrubSkipsHook(t *testing.T) {
	m := NewPhysMem(1 << 20)
	hooks := 0
	if err := m.MapShared(5, cowPage(0x42), func(PFN) { hooks++ }); err != nil {
		t.Fatal(err)
	}
	m.Scrub(5, 6)
	if m.SharedAt(5) || m.SharedFrames() != 0 {
		t.Fatal("scrub left the mapping")
	}
	if hooks != 0 {
		t.Fatal("teardown scrub must not run the promotion hook")
	}
	if got := m.Load8(PFN(5).Addr()); got != 0 {
		t.Fatalf("scrubbed frame reads %#x, want 0", got)
	}
}

// A scrub drops exactly the mappings in its range and frees exactly
// the private pages there: the frames read zero, frames outside the
// range keep their mapping or bytes, and SharedFrames drops by the
// mappings scrubbed.
func TestScrubReadsZero(t *testing.T) {
	m := NewPhysMem(1 << 20)
	pages := make([][]byte, 8)
	for i := range pages {
		if i%2 == 0 {
			pages[i] = cowPage(byte(0x10 + i))
		}
	}
	if err := m.MapSharedRange(10, pages, nil); err != nil {
		t.Fatal(err)
	}
	m.WriteWord(PFN(11).Addr(), 0x1111)   // private, in range
	m.WriteWord(PFN(12).Addr()+8, 0x2222) // promoted, in range
	m.WriteWord(PFN(20).Addr(), 0x3333)   // private, outside
	if got := m.SharedFrames(); got != 3 {
		t.Fatalf("SharedFrames = %d before scrub, want 3", got)
	}
	m.Scrub(10, 16) // frames 10, 14 mapped; 11, 12 private
	if got := m.SharedFrames(); got != 1 {
		t.Fatalf("SharedFrames = %d after scrub, want 1 (frame 16)", got)
	}
	zero := make([]byte, PageSize)
	for pfn := PFN(10); pfn < 16; pfn++ {
		if m.SharedAt(pfn) || !bytes.Equal(m.FrameBytesRO(pfn), zero) {
			t.Fatalf("frame %d not zero after scrub", pfn)
		}
	}
	if !m.SharedAt(16) || m.Load8(PFN(16).Addr()) != 0x16 {
		t.Fatal("scrub reached a mapping past its range")
	}
	if m.ReadWord(PFN(20).Addr()) != 0x3333 {
		t.Fatal("scrub reached a private frame past its range")
	}
	if got := m.nfree.Load(); got != 2 {
		t.Fatalf("free list holds %d pages, want 2", got)
	}
	m.Scrub(30, 30) // an empty range is a no-op
}

// A recycled page carries none of its old bytes: a first write into it
// reads zero everywhere but the written word, and a promotion into it
// reads the shared page's bytes everywhere but the written word.
func TestScrubbedPageReuse(t *testing.T) {
	m := NewPhysMem(1 << 20)
	junk := func(pfn PFN) {
		for off := PhysAddr(0); off < PageSize; off += 4 {
			m.WriteWord(pfn.Addr()+off, 0xDEAD0000|uint32(off))
		}
	}
	junk(3)
	junk(4)
	m.Scrub(3, 5)

	m.WriteWord(PFN(40).Addr()+12, 7) // first write: takes a page
	shared := cowPage(0x5A)
	if err := m.MapShared(41, shared, nil); err != nil {
		t.Fatal(err)
	}
	m.WriteWord(PFN(41).Addr()+12, 9) // promotion: takes the other
	if got := m.nfree.Load(); got != 0 {
		t.Fatalf("free list still holds %d pages", got)
	}
	for off := PhysAddr(0); off < PageSize; off += 4 {
		want := uint32(0)
		if off == 12 {
			want = 7
		}
		if got := m.ReadWord(PFN(40).Addr() + off); got != want {
			t.Fatalf("first write: word %d reads %#x, want %#x", off, got, want)
		}
		want = 0x5A5A5A5A
		if off == 12 {
			want = 9
		}
		if got := m.ReadWord(PFN(41).Addr() + off); got != want {
			t.Fatalf("promotion: word %d reads %#x, want %#x", off, got, want)
		}
	}
	if shared[12] != 0x5A {
		t.Fatal("promotion wrote through to the shared page")
	}
}

// Promotions in one range race a scrub of another, round after round,
// with the free list refilled each time. Meant to run under -race:
// every promoted frame must hold its shared bytes plus its own write,
// and each round's count must come out exact.
func TestScrubRacesPromotion(t *testing.T) {
	const (
		span    = 16
		writers = 4
	)
	m := NewPhysMem(1 << 20)
	shared := cowPage(0x6B)
	live, dead := PFN(0), PFN(64)
	for round := 0; round < 50; round++ {
		pages := make([][]byte, span*writers)
		for i := range pages {
			pages[i] = shared
		}
		if err := m.MapSharedRange(live, pages, nil); err != nil {
			t.Fatal(err)
		}
		for i := PFN(0); i < span; i++ {
			m.WriteWord((dead + i).Addr(), uint32(round))
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < span; i++ {
					pfn := live + PFN(w*span+i)
					m.WriteWord(pfn.Addr()+4, uint32(pfn))
				}
			}()
		}
		m.Scrub(dead, dead+span)
		wg.Wait()
		if m.SharedFrames() != 0 {
			t.Fatalf("round %d: SharedFrames = %d, want 0", round, m.SharedFrames())
		}
		for pfn := live; pfn < live+span*writers; pfn++ {
			if got := m.ReadWord(pfn.Addr() + 4); got != uint32(pfn) {
				t.Fatalf("round %d: frame %d's write reads %#x", round, pfn, got)
			}
			if got := m.ReadWord(pfn.Addr() + 8); got != 0x6B6B6B6B {
				t.Fatalf("round %d: frame %d's copy reads %#x", round, pfn, got)
			}
		}
		// Swap the roles: the promoted range is scrubbed next round.
		m.Scrub(live, live+span*writers)
		live, dead = dead, live
	}
}

func TestMapSharedCopyFrameReadsShared(t *testing.T) {
	m := NewPhysMem(1 << 20)
	if err := m.MapShared(2, cowPage(0x66), nil); err != nil {
		t.Fatal(err)
	}
	m.CopyFrame(8, 2)
	if !m.SharedAt(2) {
		t.Fatal("copying FROM a shared frame promoted it")
	}
	if got := m.Load8(PFN(8).Addr()); got != 0x66 {
		t.Fatalf("copy destination = %#x", got)
	}
	// Copying INTO a shared frame promotes the destination.
	if err := m.MapShared(9, cowPage(0x10), nil); err != nil {
		t.Fatal(err)
	}
	m.CopyFrame(9, 8)
	if m.SharedAt(9) {
		t.Fatal("copy into shared frame did not promote it")
	}
	if got := m.Load8(PFN(9).Addr()); got != 0x66 {
		t.Fatalf("promoted copy destination = %#x", got)
	}
}

func TestMapSharedValidation(t *testing.T) {
	m := NewPhysMem(1 << 20)
	if err := m.MapShared(PFN(1<<20>>PageShift), cowPage(1), nil); err == nil {
		t.Fatal("MapShared beyond memory must error")
	}
	if err := m.MapShared(1, make([]byte, 100), nil); err == nil {
		t.Fatal("MapShared of a short page must error")
	}
	// Remapping replaces the previous source and keeps the count right.
	if err := m.MapShared(1, cowPage(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(1, cowPage(3), nil); err != nil {
		t.Fatal(err)
	}
	if m.SharedFrames() != 1 {
		t.Fatalf("remap counted twice: %d", m.SharedFrames())
	}
	if got := m.Load8(PFN(1).Addr()); got != 3 {
		t.Fatalf("remapped frame reads %#x", got)
	}
}

// TestMapSharedReadDuringPromote: readers on other CPUs that read a
// CoW frame while a write promotes it see the shared bytes or the
// filled private copy, never a zero page. Meant to run under -race.
func TestMapSharedReadDuringPromote(t *testing.T) {
	const word = 0xC0FFEE11
	shared := make([]byte, PageSize)
	for off := 0; off < PageSize; off += 4 {
		binary.LittleEndian.PutUint32(shared[off:], word)
	}
	m := NewPhysMem(1 << 20)
	a := PFN(3).Addr()
	for round := 0; round < 200; round++ {
		if err := m.MapShared(3, shared, nil); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var ready, bad atomic.Uint32
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Add(1)
				for i := 1; !stop.Load(); i++ {
					if got := m.ReadWord(a); got != word {
						bad.Store(got | 1)
					}
					if i%64 == 0 {
						runtime.Gosched() // let the writer in
					}
				}
			}()
		}
		for ready.Load() < 3 {
			runtime.Gosched()
		}
		m.WriteWord(a+8, 7)
		stop.Store(true)
		wg.Wait()
		if got := bad.Load(); got != 0 {
			t.Fatalf("round %d: reader saw %#x during promotion", round, got&^1)
		}
		if m.SharedAt(3) || m.ReadWord(a) != word || m.ReadWord(a+8) != 7 {
			t.Fatalf("round %d: promotion lost content", round)
		}
	}
	if m.SharedFrames() != 0 {
		t.Fatalf("SharedFrames = %d after every promotion", m.SharedFrames())
	}
}

// Racing first writes promote once: one hook call, one count drop, and
// every writer's word lands in the same private copy.
func TestMapSharedConcurrentPromoteOnce(t *testing.T) {
	m := NewPhysMem(1 << 20)
	for round := 0; round < 50; round++ {
		var hooks atomic.Int32
		if err := m.MapShared(3, cowPage(0x5A), func(PFN) { hooks.Add(1) }); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.WriteWord(PFN(3).Addr()+PhysAddr(4*w), uint32(w+1))
			}()
		}
		wg.Wait()
		if hooks.Load() != 1 || m.SharedFrames() != 0 {
			t.Fatalf("round %d: hooks=%d shared=%d, want 1/0", round, hooks.Load(), m.SharedFrames())
		}
		for w := 0; w < 4; w++ {
			if got := m.ReadWord(PFN(3).Addr() + PhysAddr(4*w)); got != uint32(w+1) {
				t.Fatalf("round %d: writer %d's word reads %#x", round, w, got)
			}
		}
		if got := m.Load8(PFN(3).Addr() + 100); got != 0x5A {
			t.Fatalf("round %d: private copy byte = %#x, want 0x5A", round, got)
		}
	}
}

// A second MapSharedRange over part of an earlier range takes over its
// frames: they read the second call's pages and run its hook, the rest
// keep the first call's. A scrub drops both mappings without running
// either hook, and SharedFrames counts every frame once throughout.
func TestMapSharedRangePartialRemap(t *testing.T) {
	m := NewPhysMem(1 << 20)
	first := make([][]byte, 8)
	for i := range first {
		first[i] = cowPage(0x10)
	}
	second := make([][]byte, 4)
	for i := range second {
		second[i] = cowPage(0x20)
	}
	var firstHooks, secondHooks []PFN
	if err := m.MapSharedRange(10, first, func(pfn PFN) { firstHooks = append(firstHooks, pfn) }); err != nil {
		t.Fatal(err)
	}
	second[1] = nil // frame 15 keeps its first mapping
	if err := m.MapSharedRange(14, second, func(pfn PFN) { secondHooks = append(secondHooks, pfn) }); err != nil {
		t.Fatal(err)
	}
	if got := m.SharedFrames(); got != 8 {
		t.Fatalf("SharedFrames = %d after the re-map, want 8", got)
	}
	for pfn := PFN(10); pfn < 18; pfn++ {
		want := byte(0x10)
		if pfn >= 14 && pfn != 15 {
			want = 0x20
		}
		if got := m.Load8(pfn.Addr()); got != want {
			t.Fatalf("frame %d reads %#x, want %#x", pfn, got, want)
		}
	}
	for _, pfn := range []PFN{12, 15, 16} {
		m.WriteWord(pfn.Addr()+4, uint32(pfn))
	}
	if want := []PFN{12, 15}; !slices.Equal(firstHooks, want) {
		t.Fatalf("first hook ran for %v, want %v", firstHooks, want)
	}
	if want := []PFN{16}; !slices.Equal(secondHooks, want) {
		t.Fatalf("second hook ran for %v, want %v", secondHooks, want)
	}
	if got := m.ReadWord(PFN(16).Addr()); got != 0x20202020 {
		t.Fatalf("frame 16 promoted from %#x, want the second mapping's page", got)
	}
	if got := m.SharedFrames(); got != 5 {
		t.Fatalf("SharedFrames = %d after three promotions, want 5", got)
	}
	m.Scrub(10, 18)
	if len(firstHooks) != 2 || len(secondHooks) != 1 {
		t.Fatalf("scrub ran a hook: first %v, second %v", firstHooks, secondHooks)
	}
	if got := m.SharedFrames(); got != 0 {
		t.Fatalf("SharedFrames = %d after the scrub, want 0", got)
	}
	for pfn := PFN(10); pfn < 18; pfn++ {
		if m.SharedAt(pfn) || m.ReadWord(pfn.Addr()+4) != 0 {
			t.Fatalf("frame %d not zero after the scrub", pfn)
		}
	}
}
