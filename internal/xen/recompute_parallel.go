package xen

import "repro/internal/hw"

// Sharded frame recompute: the attach-time FrameTable refill charged as
// if it ran across the CPUs parked at the §5.4 switch rendezvous. While
// the APs spin in apRendezvousISR the guest is fully quiescent, so the
// roots' trees could be walked in parallel, shard s taking the roots
// i ≡ s (mod shards) in caller order.
//
// There is one walk: RecomputeFrameInfo's serial loop over the real
// FrameTable, with its cost sink set to sinkTally. Each step's cycles
// (FrameValidate per fresh table, PTValidatePin per present entry) go
// to the current root's shard instead of the CPU, and every frame the
// walk takes a reference on is claimed in an epoch-stamped per-frame
// array. The attach then pays the largest shard, then FrameMerge per
// distinct claimed frame for folding the shards' results together, so
// its latency is sub-linear in CPU count for multi-tree working sets.
//
// A page-table frame claimed from two shards (two trees reaching the
// same L1) would have been validated by each of them, so their results
// could not be merged. Such a recompute counts one RecomputeFallbacks
// and pays the largest shard plus the serial walk, as if it redid the
// walk after the failed merge. The table needs no redo: it already is
// the serial result.

// shardTally is the sharded recompute's scratch, guarded by the MMU
// lock and reused by every recompute, so it allocates nothing after
// warm-up.
type shardTally struct {
	cur      int          // shard of the root being walked
	cycles   []hw.Cycles  // each shard's validate cycles
	claims   []frameClaim // one per frame, sized on first use
	epoch    uint32       // the recompute whose claims are live
	frames   int          // distinct frames claimed this recompute
	conflict bool         // a page-table frame was claimed from two shards
}

// frameClaim is one frame's mark in the claim array: the epoch of the
// recompute that last claimed it, and 1 + the first shard that took a
// page-table type on it (0 for none).
type frameClaim struct {
	epoch uint32
	table uint32
}

// begin resets the tally for a recompute over shards shards.
func (t *shardTally) begin(shards, frames int) {
	if t.claims == nil {
		t.claims = make([]frameClaim, frames)
	}
	t.epoch++
	if t.epoch == 0 {
		// The stamp wrapped: re-zero every claim and start over.
		clear(t.claims)
		t.epoch = 1
	}
	if cap(t.cycles) < shards {
		t.cycles = make([]hw.Cycles, shards)
	}
	t.cycles = t.cycles[:shards]
	clear(t.cycles)
	t.frames, t.conflict = 0, false
}

// claim records that the current shard took a reference on pfn; table
// marks a page-table type.
func (t *shardTally) claim(pfn hw.PFN, table bool) {
	cl := &t.claims[pfn]
	if cl.epoch != t.epoch {
		*cl = frameClaim{epoch: t.epoch}
		t.frames++
	}
	if !table {
		return
	}
	switch sh := uint32(t.cur) + 1; cl.table {
	case 0:
		cl.table = sh
	case sh:
	default:
		t.conflict = true
	}
}

// claimEntries claims the frame of every present entry of an L1 table
// the current shard has just validated: once per table, so the serial
// walk's per-entry path carries no claim.
func (t *shardTally) claimEntries(table hw.TableView) {
	for i := 0; i < hw.PTEntries; i++ {
		if pte := table.At(i); pte.Present() {
			t.claim(pte.Frame(), false)
		}
	}
}

// chargeShards charges a tallied recompute over n roots: the largest
// shard, then the merge, or on a conflict the serial walk instead of
// the merge. ok is false when the walk failed; it still paid for the
// shards' work up to the failing root, but merges nothing.
func (v *VMM) chargeShards(c *hw.CPU, n int, ok bool) {
	t := &v.shards
	shards := len(t.cycles)
	start := c.Now()
	h := v.tel()
	var largest, total hw.Cycles
	for s, cyc := range t.cycles {
		largest = max(largest, cyc)
		total += cyc
		if h != nil {
			h.col.Tracer.Complete(shardCPU(v.M, c, s), start, start+cyc,
				"switch/recompute-shard", uint64((n-s+shards-1)/shards))
		}
	}
	c.Charge(largest)
	switch {
	case !ok:
	case t.conflict:
		v.Stats.RecomputeFallbacks.Add(1)
		c.Charge(total)
	default:
		mergeStart := c.Now()
		c.Charge(v.M.Costs.FrameMerge * hw.Cycles(t.frames))
		if h != nil {
			h.col.Tracer.Complete(c.ID, mergeStart, c.Now(),
				"switch/recompute-merge", uint64(t.frames))
		}
	}
}

// shardCPU is the CPU shard s is attributed to in the trace: shard 0
// to the coordinating CPU, the rest to the parked APs in ID order, and
// any shard beyond the machine's CPUs to the coordinator.
func shardCPU(m *hw.Machine, c *hw.CPU, s int) int {
	for _, cpu := range m.CPUs {
		if cpu.ID != c.ID {
			if s--; s == 0 {
				return cpu.ID
			}
		}
	}
	return c.ID
}
