package xen

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/hw"
)

// Parallel frame recompute: the attach-time FrameTable refill sharded
// across the CPUs parked at the §5.4 switch rendezvous. While the APs
// spin in apRendezvousISR the guest is fully quiescent, so every shard
// can walk a disjoint subset of the page-table trees read-only and
// accumulate its frame deltas privately; the coordinating CPU then
// merges the deltas under the MMU lock with conflict detection.
//
// Cycle accounting models the parallelism: instead of the serial sum,
// the coordinator charges max-of-shards plus a per-frame merge term, so
// attach latency becomes sub-linear in CPU count for multi-tree working
// sets. The per-shard walk costs use exactly the serial validate charges
// (FrameValidate per fresh table, PTValidatePin per present entry), so a
// one-shard walk degenerates to the serial cost.
//
// Correctness gate: on success the resulting FrameTable is bit-identical
// to a serial RecomputeFrameInfo over the same roots. Any cross-shard
// overlap on a page-table frame (two shards both believing they must
// validate the same L1/L2, or a typed-claim mix) makes the shard-local
// freshness decisions unsound, so the merge detects it and falls back to
// the serial loop, which is canonical for both success and error.

// shardDelta is one shard's privately accumulated frame accounting.
type shardDelta struct {
	order  []hw.PFN
	m      map[hw.PFN]*deltaEntry
	cycles hw.Cycles
	err    error
}

// deltaEntry is a shard's claim on one frame.
type deltaEntry struct {
	typ       FrameType
	typeAdd   uint32
	refAdd    uint32
	validated bool // this shard performed the 0->1 entry scan
	pinned    bool
}

// mergeCell is one frame's accumulated cross-shard claim in the VMM's
// reusable merge scratch (epoch-stamped: stale cells are dead, not
// swept).
type mergeCell struct {
	epoch       uint64
	typ         FrameType
	typedShards uint32 // shards contributing a typed claim
	typeAdd     uint32
	refAdd      uint32
	pinned      bool
	nonWritable bool // some typed claim was L1/L2, not FrameWritable
}

// shardWalk walks a subset of roots against the frozen base table.
type shardWalk struct {
	v     *VMM
	d     *Domain
	delta *shardDelta
}

func (w *shardWalk) entry(pfn hw.PFN) *deltaEntry {
	e := w.delta.m[pfn]
	if e == nil {
		e = &deltaEntry{}
		w.delta.m[pfn] = e
		w.delta.order = append(w.delta.order, pfn)
	}
	return e
}

// getType mirrors FrameTable.GetType against base state plus this
// shard's delta, reporting whether this was the 0->1 transition.
func (w *shardWalk) getType(pfn hw.PFN, want FrameType) (bool, error) {
	base := w.v.FT.Get(pfn)
	e := w.entry(pfn)
	count := base.TypeCount + e.typeAdd
	cur := base.Type
	if e.typeAdd > 0 {
		cur = e.typ
	}
	if count != 0 && cur != want {
		return false, errType(pfn, cur, count, want)
	}
	e.typ = want
	e.typeAdd++
	return count == 0, nil
}

// refMapping mirrors VMM.refMapping into the shard delta.
func (w *shardWalk) refMapping(pte hw.PTE) error {
	pfn := pte.Frame()
	if !w.v.M.Mem.Valid(pfn) {
		return fmt.Errorf("xen: mapping of nonexistent frame %d", pfn)
	}
	owner := w.v.FT.Get(pfn).Owner
	if w.d != nil && owner != w.d.ID && owner != DomVMM {
		return fmt.Errorf("xen: dom%d mapping foreign frame %d (owner dom%d)",
			w.d.ID, pfn, owner)
	}
	if pte.Writable() {
		if _, err := w.getType(pfn, FrameWritable); err != nil {
			return err
		}
	}
	w.entry(pfn).refAdd++
	return nil
}

// validateL1 mirrors VMM.validateL1, tallying cycles instead of
// charging and recording refs in the delta instead of the table.
func (w *shardWalk) validateL1(pt hw.PFN) error {
	fresh, err := w.getType(pt, FrameL1)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	w.delta.m[pt].validated = true
	w.delta.cycles += w.v.M.Costs.FrameValidate
	table := hw.ViewTable(w.v.M.Mem, pt)
	for i := 0; i < hw.PTEntries; i++ {
		pte := table.At(i)
		if !pte.Present() {
			continue
		}
		w.delta.cycles += w.v.M.Costs.PTValidatePin
		if err := w.refMapping(pte); err != nil {
			return fmt.Errorf("xen: validating L1 frame %d entry %d: %w", pt, i, err)
		}
	}
	return nil
}

// validateL2 mirrors VMM.validateL2.
func (w *shardWalk) validateL2(root hw.PFN) error {
	fresh, err := w.getType(root, FrameL2)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	w.delta.m[root].validated = true
	w.delta.cycles += w.v.M.Costs.FrameValidate
	dir := hw.ViewTable(w.v.M.Mem, root)
	for i := 0; i < hw.PTEntries; i++ {
		pde := dir.At(i)
		if !pde.Present() {
			continue
		}
		w.delta.cycles += w.v.M.Costs.PTValidatePin
		if err := w.validateL1(pde.Frame()); err != nil {
			return err
		}
		w.entry(pde.Frame()).refAdd++
	}
	return nil
}

// pinRoot validates one root tree into the delta.
func (w *shardWalk) pinRoot(root hw.PFN) error {
	if err := w.validateL2(root); err != nil {
		return err
	}
	e := w.entry(root)
	e.refAdd++
	e.pinned = true
	return nil
}

// RecomputeFrameInfoAuto dispatches between the serial and the sharded
// parallel recompute. A working set too small to shard stays on the
// serial path.
func (v *VMM) RecomputeFrameInfoAuto(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	if workers >= 2 && len(roots) >= 2 {
		return v.RecomputeFrameInfoParallel(c, d, roots, workers)
	}
	return v.RecomputeFrameInfo(c, d, roots)
}

// RecomputeFrameInfoParallel is RecomputeFrameInfo with the tree walks
// sharded across workers CPUs. It has the same transactional contract:
// on error the frame table and pin state are untouched.
func (v *VMM) RecomputeFrameInfoParallel(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers < 2 {
		return v.RecomputeFrameInfo(c, d, roots)
	}
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)

	// Injected transient pin failures and re-pin misuse surface before
	// any shard runs, mirroring the serial loop's first-root behaviour.
	if v.injectPinFails.Load() > 0 {
		v.injectPinFails.Add(-1)
		return fmt.Errorf("xen: recompute: injected transient failure pinning root %d", roots[0])
	}
	for _, r := range roots {
		if d.pinnedRoots[r] {
			return fmt.Errorf("xen: recompute: dom%d re-pinning root %d", d.ID, r)
		}
	}

	// Deterministic round-robin partition in caller order.
	shardRoots := make([][]hw.PFN, workers)
	for i, r := range roots {
		shardRoots[i%workers] = append(shardRoots[i%workers], r)
	}
	deltas := make([]*shardDelta, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		deltas[i] = &shardDelta{m: make(map[hw.PFN]*deltaEntry)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &shardWalk{v: v, d: d, delta: deltas[i]}
			for _, r := range shardRoots[i] {
				if err := w.pinRoot(r); err != nil {
					deltas[i].err = err
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// The walks ran concurrently: charge the slowest shard, successful
	// or not — a failed parallel attach still paid for the walk.
	start := c.Now()
	var maxCycles hw.Cycles
	for _, sd := range deltas {
		if sd.cycles > maxCycles {
			maxCycles = sd.cycles
		}
	}
	if h := v.tel(); h != nil {
		ids := shardCPUIDs(v.M, c, workers)
		for i, sd := range deltas {
			h.col.Tracer.Complete(ids[i], start, start+sd.cycles,
				"switch/recompute-shard", uint64(len(shardRoots[i])))
		}
	}
	c.Charge(maxCycles)
	for _, sd := range deltas {
		if sd.err != nil {
			return fmt.Errorf("xen: recompute: %w", sd.err)
		}
	}

	// Merge: fold every shard's claims into the reusable epoch-stamped
	// cell array (no per-call maps — the merge is on the attach hot
	// path) and detect cross-shard conflicts. Two shards may both add
	// FrameWritable refs to a shared data frame (pure counters,
	// commutative); any other overlap on a typed claim means a
	// page-table frame is reachable from more than one shard's trees,
	// where shard-local freshness decisions diverge from the serial
	// walk — redo serially, which is canonical.
	if v.mergeCells == nil {
		v.mergeCells = make([]mergeCell, v.FT.NumFrames())
		v.mergeOrder = make([]hw.PFN, 0, v.FT.NumFrames())
	}
	v.mergeEpoch++
	v.mergeOrder = v.mergeOrder[:0]
	for _, sd := range deltas {
		for _, pfn := range sd.order {
			cell := &v.mergeCells[pfn]
			if cell.epoch != v.mergeEpoch {
				*cell = mergeCell{epoch: v.mergeEpoch}
				v.mergeOrder = append(v.mergeOrder, pfn)
			}
			e := sd.m[pfn]
			if e.typeAdd > 0 {
				cell.typ = e.typ
				cell.typedShards++
				if e.typ != FrameWritable {
					cell.nonWritable = true
				}
			}
			cell.typeAdd += e.typeAdd
			cell.refAdd += e.refAdd
			if e.pinned {
				cell.pinned = true
			}
		}
	}
	for _, pfn := range v.mergeOrder {
		cell := &v.mergeCells[pfn]
		if cell.typedShards >= 2 && cell.nonWritable {
			v.Stats.RecomputeFallbacks.Add(1)
			return v.recomputeLocked(c, d, roots)
		}
	}

	// Apply the merged deltas in frame order, then publish pins in
	// caller order, exactly as the serial loop would have.
	slices.Sort(v.mergeOrder)
	mergeStart := c.Now()
	for _, pfn := range v.mergeOrder {
		cell := &v.mergeCells[pfn]
		fi := v.FT.Get(pfn)
		if cell.typeAdd > 0 {
			fi.Type = cell.typ
			fi.TypeCount += cell.typeAdd
		}
		fi.TotalRefs += cell.refAdd
		if cell.pinned {
			fi.Pinned = true
		}
		v.FT.Set(pfn, fi)
	}
	c.Charge(v.M.Costs.FrameMerge * hw.Cycles(len(v.mergeOrder)))
	if h := v.tel(); h != nil {
		h.col.Tracer.Complete(c.ID, mergeStart, c.Now(),
			"switch/recompute-merge", uint64(len(v.mergeOrder)))
	}
	for _, r := range roots {
		d.pinnedRoots[r] = true
		v.traceInstant(c, "xen/pin", uint64(d.ID))
	}
	return nil
}

// shardCPUIDs assigns shard i to a CPU for span attribution: shard 0 to
// the coordinating CPU, the rest to the parked APs in ID order.
func shardCPUIDs(m *hw.Machine, c *hw.CPU, workers int) []int {
	ids := []int{c.ID}
	for _, cpu := range m.CPUs {
		if len(ids) == workers {
			break
		}
		if cpu.ID != c.ID {
			ids = append(ids, cpu.ID)
		}
	}
	for len(ids) < workers {
		ids = append(ids, c.ID)
	}
	return ids
}
