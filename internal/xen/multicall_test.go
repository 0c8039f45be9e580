package xen

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

// TestMulticallChargesOneEntryPerBatch verifies the batching economics:
// a batch pays WorldSwitch + HypercallBase once, and each extra op costs
// only the VMM's per-op dispatch. Deferred TLB flushes make the marginal
// cost exact — the coalesced hardware flush is charged once per batch no
// matter how many ops request it.
func TestMulticallChargesOneEntryPerBatch(t *testing.T) {
	v, d, c := testVMM(t)
	costs := v.M.Costs

	run := func(n int) hw.Cycles {
		var mc Multicall
		for i := 0; i < n; i++ {
			mc.AddTLBFlush()
		}
		start := c.Now()
		if err := v.HypMulticall(c, d, &mc); err != nil {
			t.Fatal(err)
		}
		if mc.Applied != n {
			t.Fatalf("Applied = %d, want %d", mc.Applied, n)
		}
		return c.Now() - start
	}
	c1, c8 := run(1), run(8)
	if got, want := c8-c1, 7*costs.MulticallPerOp; got != want {
		t.Fatalf("marginal cost of 7 extra ops = %d, want %d (MulticallPerOp only)", got, want)
	}
	if c1 <= costs.WorldSwitch+costs.HypercallBase {
		t.Fatalf("batch of 1 charged %d, at or below the bare entry cost", c1)
	}
}

// TestMulticallTelemetry checks the batch counters: one multicall, one
// VMM entry (the hypercall counter) and the op count, each counted once
// on the calling domain, and each registry series the sum over domains.
func TestMulticallTelemetry(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 32 << 20, NumCPUs: 1})
	col := obs.New(1)
	m.SetTelemetry(col)
	v, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	c := m.BootCPU()
	v.Activate(c)
	var doms []*Domain
	for _, name := range []string{"dom0", "guest"} {
		d, err := v.CreateDomain(name, 16, name == "dom0")
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	var mc Multicall
	mc.AddTLBFlush()
	mc.AddTLBFlush()
	mc.AddTLBFlush()
	for _, d := range doms {
		v.SetCurrent(c, d)
		if err := v.HypMulticall(c, d, &mc); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		series string
		dom    func(*Domain) uint64
		want   uint64
	}{
		{"multicalls_total", func(d *Domain) uint64 { return d.Stats.Multicalls.Load() }, 1},
		{"multicall_ops_total", func(d *Domain) uint64 { return d.Stats.MulticallOps.Load() }, 3},
		// The whole batch is one VMM entry.
		{"hypercalls_total", func(d *Domain) uint64 { return d.Stats.Hypercalls.Load() }, 1},
	} {
		for _, d := range doms {
			if got := tc.dom(d); got != tc.want {
				t.Errorf("dom%d %s = %d, want %d", d.ID, tc.series, got, tc.want)
			}
		}
		if got := col.Registry.Counter("xen", tc.series).Load(); got != 2*tc.want {
			t.Errorf("xen/%s = %d, want %d", tc.series, got, 2*tc.want)
		}
	}
}

// TestMulticallCoalescesTLBFlushes: any number of MCTLBFlush requests in
// one batch produce at most one hardware flush, executed at batch end.
func TestMulticallCoalescesTLBFlushes(t *testing.T) {
	v, d, c := testVMM(t)
	var mc Multicall
	for i := 0; i < 5; i++ {
		mc.AddTLBFlush()
	}
	f0 := c.TLB.Flushes
	if err := v.HypMulticall(c, d, &mc); err != nil {
		t.Fatal(err)
	}
	if got := c.TLB.Flushes - f0; got != 1 {
		t.Fatalf("5 flush requests caused %d hardware flushes, want 1", got)
	}
}

// TestMulticallNewBaseptrCancelsFlush: a CR3 load later in the batch
// satisfies an earlier deferred flush — no extra hardware flush runs.
func TestMulticallNewBaseptrCancelsFlush(t *testing.T) {
	v, d, c := testVMM(t)
	tb1, _ := buildTree(t, v, d, 1)
	tb2, _ := buildTree(t, v, d, 1)

	flushes := func(build func(*Multicall)) uint64 {
		var mc Multicall
		build(&mc)
		f0 := c.TLB.Flushes
		if err := v.HypMulticall(c, d, &mc); err != nil {
			t.Fatal(err)
		}
		return c.TLB.Flushes - f0
	}
	bare := flushes(func(mc *Multicall) { mc.AddNewBaseptr(tb1.Root) })
	withFlush := flushes(func(mc *Multicall) {
		mc.AddTLBFlush()
		mc.AddNewBaseptr(tb2.Root)
	})
	if withFlush != bare {
		t.Fatalf("flush+new_baseptr caused %d flushes, new_baseptr alone %d — the CR3 load should cancel the pending flush", withFlush, bare)
	}
}

// TestMulticallAppliedPrefixOnError: execution stops at the first
// failing op, Applied reports the applied prefix, the error names the
// op, and a deferred flush requested by an applied op still runs.
func TestMulticallAppliedPrefixOnError(t *testing.T) {
	v, d, c := testVMM(t)
	tb1, _ := buildTree(t, v, d, 1)
	tb2, _ := buildTree(t, v, d, 1)
	stray := d.Frames.Alloc() // never pinned: unpinning it must fail

	var mc Multicall
	mc.AddTLBFlush()
	mc.AddPin(tb1.Root)
	mc.AddUnpin(stray)
	mc.AddPin(tb2.Root) // never reached

	f0 := c.TLB.Flushes
	err := v.HypMulticall(c, d, &mc)
	if err == nil {
		t.Fatal("unpin of a never-pinned frame succeeded")
	}
	if !strings.Contains(err.Error(), "op 2 (unpin)") {
		t.Errorf("error does not name the failing op: %v", err)
	}
	if mc.Applied != 2 {
		t.Errorf("Applied = %d, want 2 (flush request + first pin)", mc.Applied)
	}
	if !d.HasPinned(tb1.Root) {
		t.Error("applied prefix lost: first pin not recorded")
	}
	if d.HasPinned(tb2.Root) {
		t.Error("op after the failure executed")
	}
	if got := c.TLB.Flushes - f0; got != 1 {
		t.Errorf("deferred flush on the error path: %d hardware flushes, want 1 — a partial batch must not leave stale translations live", got)
	}
}

// TestMulticallResetKeepsCapacityDropsRefs: Reset empties the batch
// without shrinking either backing array, the ops' or the entry
// stores', and clears the Traps/Timer references so a warmed batch does
// not pin garbage.
func TestMulticallResetKeepsCapacityDropsRefs(t *testing.T) {
	var mc Multicall
	mc.AddSetTrapTable([]TrapEntry{{Vector: 3}})
	mc.AddBindVirqTimer(func(*hw.CPU) {})
	mc.AddUpdates([]MMUUpdate{{Table: 7}, {Table: 7, Index: 1}})
	mc.Applied = 1
	backing := mc.ops
	capBefore, updCapBefore := cap(mc.ops), cap(mc.updates)

	mc.Reset()
	if mc.Len() != 0 || mc.Applied != 0 || len(mc.ops) != 0 || len(mc.updates) != 0 {
		t.Fatalf("after Reset: len %d, applied %d, %d ops, %d updates",
			mc.Len(), mc.Applied, len(mc.ops), len(mc.updates))
	}
	if cap(mc.ops) != capBefore || cap(mc.updates) != updCapBefore {
		t.Fatalf("Reset shrank capacity: ops %d -> %d, updates %d -> %d",
			capBefore, cap(mc.ops), updCapBefore, cap(mc.updates))
	}
	if backing[0].Traps != nil || backing[1].Timer != nil {
		t.Fatal("Reset left Traps/Timer references in the backing array")
	}
}

// TestMulticallEnqueueFlushAllocFree is the hot-path allocation gate for
// the multicall layer: a warmed batch enqueues, executes, and resets
// with zero heap allocations.
func TestMulticallEnqueueFlushAllocFree(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 1)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	// Find a live L1 slot and reuse its exact value: a same-value store
	// is always valid, so the loop body is pure mechanism.
	var l1 hw.PFN
	for i := 0; i < hw.PTEntries; i++ {
		if pde := hw.ReadPTE(v.M.Mem, tb.Root, i); pde.Present() {
			l1 = pde.Frame()
			break
		}
	}
	idx, entry := -1, hw.PTE(0)
	for i := 0; i < hw.PTEntries; i++ {
		if pte := hw.ReadPTE(v.M.Mem, l1, i); pte.Present() {
			idx, entry = i, pte
			break
		}
	}
	if idx < 0 {
		t.Fatal("no live L1 entry found")
	}

	var mc Multicall
	mc.Grow(8, 8)
	allocs := testing.AllocsPerRun(100, func() {
		mc.AddUpdates([]MMUUpdate{{Table: l1, Index: idx, New: entry}, {Table: l1, Index: idx, New: entry}})
		mc.AddTLBFlush()
		if err := v.HypMulticall(c, d, &mc); err != nil {
			panic(err)
		}
		mc.Reset()
	})
	if allocs != 0 {
		t.Fatalf("multicall enqueue+flush allocates %.1f per run, want 0", allocs)
	}
}

// TestMulticallCountsEntries: a batch's entry stores count one op each,
// however they ride, in Len, Applied, the op index an error names, the
// xen/multicall_ops_total series and Domain.Stats.MMUUpdates, and the cycles: a
// 600-entry stream over two tables, with a flush among them, costs what
// 600 one-entry batches cost less 599 VMM entries, and fails at entry
// 450 with the 450 entries before it applied.
func TestMulticallCountsEntries(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 32 << 20, NumCPUs: 1})
	col := obs.New(1)
	m.SetTelemetry(col)
	v, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	c := m.BootCPU()
	v.Activate(c)
	d, err := v.CreateDomain("guest", hw.PFN(m.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, d)
	tb, data := buildTree(t, v, d, 1100)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	// Entry i re-flags page 500+i read-only: the stream crosses from the
	// tree's first L1 into its second at entry 524.
	slot := func(i int) (hw.PFN, int) {
		s, _ := tb.ExistingSlot(hw.VirtAddr(0x0800_0000 + (500+i)<<hw.PageShift))
		return s.Table, s.Index
	}
	stream := func(mc *Multicall, bad int) {
		for i := range 600 {
			table, idx := slot(i)
			e := hw.MakePTE(data[500+i], hw.PTEPresent|hw.PTEUser)
			if i == bad {
				e = hw.MakePTE(v.M.Mem.NumFrames(), hw.PTEPresent)
			}
			mc.AddUpdates([]MMUUpdate{{Table: table, Index: idx, New: e}})
			if i == 300 {
				mc.AddTLBFlush()
			}
		}
	}
	ops, updates := col.Registry.Counter("xen", "multicall_ops_total"), &d.Stats.MMUUpdates
	ops0, upd0, t0 := ops.Load(), updates.Load(), c.Now()
	var mc Multicall
	stream(&mc, -1)
	if mc.Len() != 601 {
		t.Fatalf("Len = %d, want 601: each entry store one op", mc.Len())
	}
	if err := v.HypMulticall(c, d, &mc); err != nil {
		t.Fatal(err)
	}
	batch := c.Now() - t0
	if mc.Applied != 601 || ops.Load()-ops0 != 601 || updates.Load()-upd0 != 600 {
		t.Fatalf("Applied %d, multicall_ops %d, mmu_updates %d; want 601, 601, 600",
			mc.Applied, ops.Load()-ops0, updates.Load()-upd0)
	}

	// The same stores, one batch each, on the tree the stream left.
	t0 = c.Now()
	for i := range 600 {
		table, idx := slot(i)
		var one Multicall
		one.AddUpdates([]MMUUpdate{{Table: table, Index: idx, New: hw.ReadPTE(v.M.Mem, table, idx)}})
		if err := v.HypMulticall(c, d, &one); err != nil {
			t.Fatal(err)
		}
	}
	var flush Multicall
	flush.AddTLBFlush()
	if err := v.HypMulticall(c, d, &flush); err != nil {
		t.Fatal(err)
	}
	entry := v.M.Costs.WorldSwitch + v.M.Costs.HypercallBase
	if got, want := c.Now()-t0, batch+600*entry; got != want {
		t.Fatalf("601 one-op batches cost %d, want the stream's %d plus 600 VMM entries: %d", got, batch, want)
	}

	mc.Reset()
	stream(&mc, 450)
	upd0 = updates.Load()
	err = v.HypMulticall(c, d, &mc)
	// Entry 450 is op 451: the flush after entry 300 is an op too.
	if err == nil || !strings.Contains(err.Error(), "op 451 (mmu_update)") {
		t.Fatalf("stream with a bad entry 450: %v, want op 451 named", err)
	}
	if mc.Applied != 451 || updates.Load()-upd0 != 450 {
		t.Fatalf("Applied %d, mmu_updates %d; want 451 and 450", mc.Applied, updates.Load()-upd0)
	}
}
