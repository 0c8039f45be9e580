package fork

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/xen"
)

// BenchmarkStorePut times one Put of content the store already holds
// (hit: a fingerprint and a byte compare) and of content it lacks (miss:
// a fingerprint, a sha256 and an insert, followed by the Release that
// keeps the store at one frame).
func BenchmarkStorePut(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := NewStore()
		page := onePage(123, 0x7E)
		if _, err := s.Put(page); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(hw.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Put(page); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := NewStore()
		page := onePage(123, 0x7E)
		b.SetBytes(hw.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(page, uint64(i))
			h, err := s.Put(page)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Release(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointDelta times one delta checkpoint of a 256-frame
// clone with 32 dirtied frames (24 base frames rewritten, 8 slack frames
// written) and its two relocated table frames. A first overlay stays
// live, so every diverged frame is a dedup hit in the store, as most
// are when clones dirty repeating content; each timed overlay is
// released again.
func BenchmarkCheckpointDelta(b *testing.B) {
	v, dom0, origin, c := env(b)
	cb := warmBase(b, v, dom0, origin, c)
	cs, err := Clone(c, v, dom0, cb, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		v.M.Mem.WriteWord((cs.Lo + hw.PFN(i)).Addr(), 0xD000_0000|uint32(i))
	}
	for i := 0; i < 8; i++ {
		v.M.Mem.WriteWord((cs.Lo + hw.PFN(200+i)).Addr(), 0xD100_0000|uint32(i))
	}
	keep, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := CheckpointDelta(c, v, dom0, cs)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := AuditRefs(cb.Store, cb.Img, cs, keep); err != nil {
		b.Fatal(err)
	}
}

// cycleRound is how many clone cycles one template host holds: a
// destroyed clone's partition is never handed out again.
const cycleRound = 64

// cloneCycle runs one clone's life on a template host: a clone, 32
// dirtied frames (the first 32 data pages, one word each), a delta
// checkpoint and a destroy. It returns the delta.
func cloneCycle(tb testing.TB, h *xen.Host, cb *CloneBase) *Overlay {
	cs, err := Clone(h.C, h.V, h.Dom0, cb, "cycle")
	if err != nil {
		tb.Fatal(err)
	}
	for j := 0; j < 32; j++ {
		h.M.Mem.WriteWord((cs.Lo + hw.PFN(j)).Addr(), 0xD000_0000|uint32(j))
	}
	o, err := CheckpointDelta(h.C, h.V, h.Dom0, cs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := DestroyClone(h.C, h.V, h.Dom0, cs); err != nil {
		tb.Fatal(err)
	}
	return o
}

// cycleHost boots a template host of 256 live pages for cycleRound
// clone cycles and runs a first cycle whose delta stays live, so that
// later cycles' dirt is a dedup hit in the store, as it mostly is in
// mercurybench's fork-clone, and the destroyed clone's pages are on
// the free list.
func cycleHost(tb testing.TB) (*xen.Host, *CloneBase) {
	h, cb, err := NewTemplate(256, cycleRound)
	if err != nil {
		tb.Fatal(err)
	}
	cloneCycle(tb, h, cb)
	return h, cb
}

// releasedCycle is one cloneCycle whose delta is released again, so
// that the store ends the cycle as it began.
func releasedCycle(tb testing.TB, h *xen.Host, cb *CloneBase) {
	if err := cloneCycle(tb, h, cb).Release(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCloneCycle times one clone cycle (releasedCycle) on a
// template of 256 live pages. A fresh host (cycleHost) is built,
// untimed, every cycleRound-1 cycles.
func BenchmarkCloneCycle(b *testing.B) {
	b.ReportAllocs()
	var h *xen.Host
	var cb *CloneBase
	for i := 0; i < b.N; i++ {
		if i%(cycleRound-1) == 0 {
			b.StopTimer()
			h, cb = cycleHost(b)
			b.StartTimer()
		}
		releasedCycle(b, h, cb)
	}
}

// TestCloneCycleAllocs bounds the allocations of one clone cycle on a
// template of 256 live pages (258 base frames with its tables). A
// cycle makes 32 allocations, with and without -race, none of them per
// base frame; the bound is those 32 plus a margin of 4. One more per
// dirtied frame would add 32, one per mapped frame 258.
func TestCloneCycleAllocs(t *testing.T) {
	h, cb := cycleHost(t)
	allocs := testing.AllocsPerRun(cycleRound-3, func() { releasedCycle(t, h, cb) })
	t.Logf("one clone cycle made %.0f allocations", allocs)
	if allocs > 36 {
		t.Fatalf("one clone cycle made %.0f allocations, want at most 36", allocs)
	}
}

// TestCloneBytesIndependentOfBase measures the heap bytes one clone
// cycle allocates on templates of 256 and 1,024 live pages, as the
// mean TotalAlloc growth over a round of cycles. Mapping a clone and
// tearing it down allocate nothing per base frame, so the two must
// agree within 1 KiB; 32 bytes per mapped frame would part them by
// 24 KiB.
func TestCloneBytesIndependentOfBase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perCycle := func(pages int) float64 {
		h, cb, err := NewTemplate(pages, cycleRound)
		if err != nil {
			t.Fatal(err)
		}
		cloneCycle(t, h, cb)
		const n = cycleRound - 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			releasedCycle(t, h, cb)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := perCycle(256), perCycle(1024)
	t.Logf("one clone cycle allocates %.0f B on 256 pages, %.0f B on 1,024", small, large)
	if math.Abs(large-small) > 1024 {
		t.Fatalf("one clone cycle allocates %.0f B on 256 pages but %.0f B on 1,024: want within 1 KiB",
			small, large)
	}
}
