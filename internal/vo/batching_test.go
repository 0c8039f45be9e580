package vo

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/xen"
)

// Batch-boundary semantics: inside a lazy-MMU section stores are
// invisible until a boundary (FlushLazyMMU, FlushTLB, ContextSwitch,
// EndLazyMMU) drains the per-CPU buffer; every boundary drains fully.

func TestLazyWriteDeferredUntilFlush(t *testing.T) {
	o, c, pt, e := virtualWriteEnv(t)

	o.BeginLazyMMU(c)
	o.WritePTE(c, pt, 5, e)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 5); got != 0 {
		t.Fatalf("deferred store already visible: %#x", uint32(got))
	}
	o.FlushLazyMMU(c)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 5); got != e {
		t.Fatalf("after FlushLazyMMU: %#x, want %#x", uint32(got), uint32(e))
	}

	o.WritePTE(c, pt, 6, e)
	o.EndLazyMMU(c)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 6); got != e {
		t.Fatalf("EndLazyMMU did not drain: %#x, want %#x", uint32(got), uint32(e))
	}
	if o.Refs() != 0 {
		t.Fatalf("refs after section: %d", o.Refs())
	}
}

// TestLazyBufferCountsEntries: the lazy buffer counts each entry store
// as one op, so a 600-entry stream (a table run with a directory store
// in it) self-flushes at entry mcBatchCap and
// drains the other 88 at EndLazyMMU, counting 600 multicall ops and 600
// mmu_updates over two multicalls. With entry 450 refused, the flush
// after the cap names op 450 and applies the 450 before it.
func TestLazyBufferCountsEntries(t *testing.T) {
	o, c, pt, e := virtualWriteEnv(t)
	root := o.D.PinnedRoots()[0]
	pde := hw.ReadPTE(o.V.M.Mem, root, 0)
	stream := func(bad int) []xen.MMUUpdate {
		batch := make([]xen.MMUUpdate, 600)
		for i := range batch {
			batch[i] = xen.MMUUpdate{Table: pt, Index: i, New: e}
			if i == 300 {
				batch[i] = xen.MMUUpdate{Table: root, Index: 0, New: pde}
			}
			if i == bad {
				batch[i].New = hw.MakePTE(o.V.M.Mem.NumFrames(), hw.PTEPresent)
			}
		}
		return batch
	}
	d := o.D
	mcs0, ops0, upd0 := d.Stats.Multicalls.Load(), d.Stats.MulticallOps.Load(), d.Stats.MMUUpdates.Load()
	o.BeginLazyMMU(c)
	for i, u := range stream(-1) {
		o.WritePTEBatch(c, []xen.MMUUpdate{u})
		want, flushed := i+1, uint64(0)
		if i+1 >= mcBatchCap {
			want, flushed = i+1-mcBatchCap, 1
		}
		if got := o.lazy[c.ID].mc.Len(); got != want || d.Stats.Multicalls.Load()-mcs0 != flushed {
			t.Fatalf("after entry %d: %d pending, %d multicalls; want %d and %d",
				i, got, d.Stats.Multicalls.Load()-mcs0, want, flushed)
		}
	}
	o.EndLazyMMU(c)
	if mcs, ops, upd := d.Stats.Multicalls.Load()-mcs0, d.Stats.MulticallOps.Load()-ops0,
		d.Stats.MMUUpdates.Load()-upd0; mcs != 2 || ops != 600 || upd != 600 {
		t.Fatalf("%d multicalls, %d ops, %d mmu_updates; want 2, 600, 600", mcs, ops, upd)
	}

	upd0 = d.Stats.MMUUpdates.Load()
	o.BeginLazyMMU(c)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "op 450 (mmu_update)") {
				t.Fatalf("stream with a bad entry 450: %v, want op 450 named", r)
			}
		}()
		o.WritePTEBatch(c, stream(450))
	}()
	if upd := d.Stats.MMUUpdates.Load() - upd0; upd != 450 {
		t.Fatalf("%d mmu_updates before the bad entry, want 450", upd)
	}
}

func TestLazySectionsNest(t *testing.T) {
	o, c, pt, e := virtualWriteEnv(t)

	o.BeginLazyMMU(c)
	o.BeginLazyMMU(c)
	if o.Refs() != 1 {
		t.Fatalf("nested sections hold %d refs, want 1 (outermost only)", o.Refs())
	}
	o.WritePTE(c, pt, 7, e)
	o.EndLazyMMU(c) // inner End is a boundary too
	if got := hw.ReadPTE(o.V.M.Mem, pt, 7); got != e {
		t.Fatalf("inner EndLazyMMU did not drain: %#x", uint32(got))
	}
	// Still inside the outer section: stores defer again.
	o.WritePTE(c, pt, 8, e)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 8); got != 0 {
		t.Fatal("outer section no longer deferring after inner End")
	}
	o.EndLazyMMU(c)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 8); got != e {
		t.Fatalf("outer EndLazyMMU did not drain: %#x", uint32(got))
	}
	if o.Refs() != 0 {
		t.Fatalf("refs after sections: %d", o.Refs())
	}
}

func TestLazyFlushTLBIsBoundary(t *testing.T) {
	o, c, pt, e := virtualWriteEnv(t)
	d := o.D

	o.BeginLazyMMU(c)
	defer o.EndLazyMMU(c)
	o.WritePTE(c, pt, 9, e)
	m0, h0 := d.Stats.Multicalls.Load(), d.Stats.Hypercalls.Load()
	f0 := c.TLB.Flushes
	o.FlushTLB(c)
	if got := hw.ReadPTE(o.V.M.Mem, pt, 9); got != e {
		t.Fatalf("FlushTLB did not drain the lazy buffer: %#x", uint32(got))
	}
	if got := d.Stats.Multicalls.Load() - m0; got != 1 {
		t.Errorf("drain used %d multicalls, want 1", got)
	}
	if got := d.Stats.Hypercalls.Load() - h0; got != 1 {
		t.Errorf("drain used %d VMM entries, want 1 (flush rides the batch)", got)
	}
	if got := c.TLB.Flushes - f0; got != 1 {
		t.Errorf("hardware flushes = %d, want 1", got)
	}
}

func TestLazyContextSwitchIsBoundary(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	alloc := func() hw.PFN {
		pfn := d.Frames.Alloc()
		v.M.Mem.ZeroFrame(pfn)
		return pfn
	}
	root := alloc()
	o.RegisterRoot(c, root)
	pt := alloc()
	o.WritePTE(c, root, 0, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	e := hw.MakePTE(alloc(), hw.PTEPresent|hw.PTEUser)

	o.BeginLazyMMU(c)
	defer o.EndLazyMMU(c)
	o.WritePTE(c, pt, 1, e)
	m0 := d.Stats.Multicalls.Load()
	o.ContextSwitch(c, root)
	if got := hw.ReadPTE(v.M.Mem, pt, 1); got != e {
		t.Fatalf("ContextSwitch did not drain the lazy buffer: %#x", uint32(got))
	}
	if got := d.Stats.Multicalls.Load() - m0; got != 1 {
		t.Errorf("switch+drain used %d multicalls, want 1 (stack switch, new baseptr and the pending store share a batch)", got)
	}
	if c.ReadCR3() == 0 {
		t.Error("context switch did not install the root")
	}
}

func TestEndLazyMMUWithoutBeginPanics(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced EndLazyMMU did not panic")
		}
	}()
	o.EndLazyMMU(c)
}

func TestNativeLazySectionIsEagerButRefCounted(t *testing.T) {
	m, c := nativeEnv()
	o := NewNative(m)
	table := m.Frames.Alloc()
	e := hw.MakePTE(9, hw.PTEPresent)

	o.BeginLazyMMU(c)
	if o.Refs() != 1 {
		t.Fatalf("native section holds %d refs, want 1", o.Refs())
	}
	o.WritePTE(c, table, 0, e)
	if got := hw.ReadPTE(m.Mem, table, 0); got != e {
		t.Fatal("native store deferred — native must stay eager")
	}
	o.FlushLazyMMU(c) // no-op
	o.EndLazyMMU(c)
	if o.Refs() != 0 {
		t.Fatalf("refs after section: %d", o.Refs())
	}
}

// --- batched vs unbatched equivalence -------------------------------

// batchEnv is one independent machine prepared for the property test:
// a registered root with one live L1 table, a pool of data frames, a
// pool of pin/unpin roots, and two context-switch roots.
type batchEnv struct {
	v        *xen.VMM
	d        *xen.Domain
	c        *hw.CPU
	o        *Virtual
	j        *xen.DirtyJournal
	pt       hw.PFN
	data     []hw.PFN
	pinPool  []hw.PFN
	pinned   []bool
	ctxRoots []hw.PFN
}

func newBatchEnv(t *testing.T) *batchEnv {
	t.Helper()
	v, d, c := virtualEnv(t)
	e := &batchEnv{v: v, d: d, c: c, o: NewVirtual(v, d), j: v.EnableJournal(0)}
	alloc := func() hw.PFN {
		pfn := d.Frames.Alloc()
		v.M.Mem.ZeroFrame(pfn)
		return pfn
	}
	root := alloc()
	e.o.RegisterRoot(c, root)
	e.pt = alloc()
	e.o.WritePTE(c, root, 0, hw.MakePTE(e.pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	for i := 0; i < 16; i++ {
		e.data = append(e.data, alloc())
	}
	for i := 0; i < 4; i++ {
		e.pinPool = append(e.pinPool, alloc())
	}
	e.pinned = make([]bool, len(e.pinPool))
	e.ctxRoots = []hw.PFN{root, alloc()}
	e.o.RegisterRoot(c, e.ctxRoots[1])
	return e
}

// step applies one random operation drawn from rng. The same rng seed
// produces the same op stream on any env — the lazy wrapping is the
// only difference between the two runs.
func (e *batchEnv) step(rng *rand.Rand) {
	c, o := e.c, e.o
	switch k := rng.Intn(12); {
	case k < 4: // single store
		flags := hw.PTEPresent | hw.PTEUser
		if rng.Intn(2) == 0 {
			flags |= hw.PTEWrite
		}
		o.WritePTE(c, e.pt, rng.Intn(hw.PTEntries),
			hw.MakePTE(e.data[rng.Intn(len(e.data))], flags))
	case k < 5: // clear
		o.WritePTE(c, e.pt, rng.Intn(hw.PTEntries), 0)
	case k < 7: // batch store
		n := 1 + rng.Intn(4)
		batch := make([]xen.MMUUpdate, n)
		for i := range batch {
			batch[i] = xen.MMUUpdate{Table: e.pt, Index: rng.Intn(hw.PTEntries),
				New: hw.MakePTE(e.data[rng.Intn(len(e.data))], hw.PTEPresent|hw.PTEUser)}
		}
		o.WritePTEBatch(c, batch)
	case k < 9: // pin ladder
		i := rng.Intn(len(e.pinPool))
		if e.pinned[i] {
			o.ReleaseRoot(c, e.pinPool[i])
		} else {
			o.RegisterRoot(c, e.pinPool[i])
		}
		e.pinned[i] = !e.pinned[i]
	case k < 10:
		o.InvalidatePage(c, hw.VirtAddr(rng.Intn(1<<20))<<hw.PageShift)
	case k < 11:
		o.FlushTLB(c)
	default:
		o.ContextSwitch(c, e.ctxRoots[rng.Intn(len(e.ctxRoots))])
	}
}

// TestBatchedUnbatchedEquivalence is the property test for logical
// transparency: the same pseudo-random sensitive-op stream, run once
// per-op and once inside a lazy-MMU section punctuated by random
// flushes and nested sections, must leave two identically built
// machines bit-identical — every physical frame, the whole frame-table
// accounting, the installed root, and the (idle, virtual-mode) dirty
// journal.
func TestBatchedUnbatchedEquivalence(t *testing.T) {
	const seed, steps = 0x6d657263, 400

	eager := newBatchEnv(t)
	lazy := newBatchEnv(t)

	ops := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		eager.step(ops)
	}

	ops = rand.New(rand.NewSource(seed)) // identical op stream
	punct := rand.New(rand.NewSource(1)) // lazy-side-only punctuation
	lazy.o.BeginLazyMMU(lazy.c)
	nested := 0
	for i := 0; i < steps; i++ {
		lazy.step(ops)
		switch punct.Intn(10) {
		case 0:
			lazy.o.FlushLazyMMU(lazy.c)
		case 1:
			lazy.o.BeginLazyMMU(lazy.c)
			nested++
		case 2:
			if nested > 0 {
				lazy.o.EndLazyMMU(lazy.c)
				nested--
			}
		}
	}
	for ; nested > 0; nested-- {
		lazy.o.EndLazyMMU(lazy.c)
	}
	lazy.o.EndLazyMMU(lazy.c)

	// The batching must actually have engaged, and saved VMM entries.
	if lazy.d.Stats.Multicalls.Load() == 0 {
		t.Fatal("lazy run issued no multicalls")
	}
	le := lazy.d.Stats.Hypercalls.Load() + lazy.d.Stats.Multicalls.Load()
	ee := eager.d.Stats.Hypercalls.Load() + eager.d.Stats.Multicalls.Load()
	if le >= ee {
		t.Errorf("lazy run entered the VMM %d times, eager %d — batching saved nothing", le, ee)
	}

	// Bit-identical end state.
	if err := eager.v.FT.Equal(lazy.v.FT); err != nil {
		t.Fatalf("frame tables diverge: %v", err)
	}
	mem1, mem2 := eager.v.M.Mem, lazy.v.M.Mem
	if mem1.NumFrames() != mem2.NumFrames() {
		t.Fatalf("machines sized differently")
	}
	for pfn := hw.PFN(0); pfn < mem1.NumFrames(); pfn++ {
		if !bytes.Equal(mem1.FrameBytesRO(pfn), mem2.FrameBytesRO(pfn)) {
			t.Fatalf("physical frame %d diverges between batched and unbatched runs", pfn)
		}
	}
	if eager.c.ReadCR3() != lazy.c.ReadCR3() {
		t.Fatalf("installed roots diverge: %#x vs %#x", eager.c.ReadCR3(), lazy.c.ReadCR3())
	}
	if es, ls := eager.j.StatsSnapshot(), lazy.j.StatsSnapshot(); es != ls {
		t.Fatalf("journal state diverges: %+v vs %+v", es, ls)
	}
	if eager.j.Len() != lazy.j.Len() {
		t.Fatalf("journal lengths diverge: %d vs %d", eager.j.Len(), lazy.j.Len())
	}
}
