package hw

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

func TestUnmapSharedSkipsHook(t *testing.T) {
	m := NewPhysMem(1 << 20)
	hooks := 0
	if err := m.MapShared(5, cowPage(0x42), func(PFN) { hooks++ }); err != nil {
		t.Fatal(err)
	}
	if !m.UnmapShared(5) {
		t.Fatal("unmap of mapped frame reported false")
	}
	if m.UnmapShared(5) {
		t.Fatal("unmap of unmapped frame reported true")
	}
	if hooks != 0 {
		t.Fatal("teardown unmap must not run the promotion hook")
	}
	if got := m.Load8(PFN(5).Addr()); got != 0 {
		t.Fatalf("unmapped frame reads %#x, want 0", got)
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
