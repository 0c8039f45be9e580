package xen

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/hw"
)

// The dirty-frame journal is Mercury's third frame-tracking policy,
// between the §5.1.2 extremes of recompute-on-switch (zero native
// overhead, expensive attach) and active tracking (every native PTE
// store mirrored through the VMM, cheap attach):
//
// At detach the VMM keeps its frame table frozen as a snapshot instead
// of releasing it, and the native kernel's PTE-write path appends
// (table, index, old, new) records to a bounded ring — a few cycles per
// store, far below the active-tracking mirror cost. On re-attach only
// the journaled slots are revalidated against the snapshot and replayed
// as frame-accounting deltas. Anything the journal cannot represent —
// ring overflow, a structural change (a new or dropped page-table
// frame, a write to a non-L1 table), or a first attach with no snapshot
// — degrades to the full recompute path, so correctness never depends
// on the journal being complete: an incomplete journal only costs the
// fallback.
//
// Replay is transactional and self-validating: every condensed slot is
// checked against what memory actually contains (a corrupted or forged
// record mismatches and fails the attach, feeding the failure-resistant
// switch's rollback), and the accumulated deltas are validated against
// the snapshot's type system before any of them is applied.

// JournalEntry is one recorded native PTE store.
type JournalEntry struct {
	Table hw.PFN
	Index int
	Old   hw.PTE
	New   hw.PTE
}

// JournalStats counts journal activity (read under the journal lock,
// exposed by value via StatsSnapshot).
type JournalStats struct {
	Appends      uint64 // entries recorded
	Overflows    uint64 // detach epochs that overflowed the ring
	Structural   uint64 // detach epochs degraded by structural changes
	Replays      uint64 // re-attaches served by replay
	ReplaySlots  uint64 // condensed slots replayed
	ReplayErrors uint64 // replays rejected by validation
	Fallbacks    uint64 // re-attaches that fell back to full recompute
}

// DirtyJournal is the bounded ring of PTE stores made while detached.
type DirtyJournal struct {
	mu         sync.Mutex
	ft         *FrameTable
	capacity   int
	entries    []JournalEntry
	recording  bool // armed by a detach, disarmed by the next attach
	overflowed bool
	structural bool
	snapshot   bool // the frozen frame table matches the arm point
	stats      JournalStats

	// Reusable replay scratch (guarded by mu, sized lazily on first
	// use): slot condensation runs through an epoch-stamped
	// open-addressing hash instead of a per-call map, and the frame
	// deltas accumulate in NumFrames-indexed arrays. Replay therefore
	// performs zero heap allocation after warm-up — the attach path's
	// AllocsPerRun gate depends on it.
	slots      []journalSlot
	slotHash   []slotHashCell
	hashEpoch  uint64
	deltaRefs  []int64
	deltaWr    []int64
	deltaEpoch []uint64
	deltaSeen  uint64
	deltaOrder []hw.PFN
	finals     []int32
}

// slotHashCell is one open-addressing cell of the condensation hash:
// epoch-stamped so clearing between replays is a counter bump, not a
// sweep.
type slotHashCell struct {
	epoch uint64
	key   uint64
	slot  int32
}

// DefaultJournalEntries is the default ring capacity.
const DefaultJournalEntries = 8192

// EnableJournal installs a dirty-frame journal on the VMM and returns
// it. capacity <= 0 selects the default ring size.
func (v *VMM) EnableJournal(capacity int) *DirtyJournal {
	if capacity <= 0 {
		capacity = DefaultJournalEntries
	}
	v.journal = &DirtyJournal{
		ft:       v.FT,
		capacity: capacity,
		entries:  make([]JournalEntry, 0, capacity),
	}
	return v.journal
}

// Journal returns the installed journal, or nil.
func (v *VMM) Journal() *DirtyJournal { return v.journal }

// Arm starts a fresh journaling epoch at detach time: the current frame
// table becomes the frozen snapshot and subsequent native PTE stores
// are recorded.
func (j *DirtyJournal) Arm() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = j.entries[:0]
	j.recording = true
	j.overflowed = false
	j.structural = false
	j.snapshot = true
}

// Disarm stops recording and invalidates the snapshot (the frame table
// is live again, or is about to be rebuilt from scratch).
func (j *DirtyJournal) Disarm() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = j.entries[:0]
	j.recording = false
	j.snapshot = false
}

// Recording reports whether an epoch is armed.
func (j *DirtyJournal) Recording() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recording
}

// Len returns the number of buffered entries.
func (j *DirtyJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// StatsSnapshot returns a copy of the counters.
func (j *DirtyJournal) StatsSnapshot() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Record appends one native PTE store to the ring. Stores to anything
// but a snapshot-known L1 table (a fresh table the snapshot never
// validated, or a directory) are structural: the journal cannot replay
// them and degrades the epoch to full-recompute.
func (j *DirtyJournal) Record(table hw.PFN, idx int, old, new hw.PTE) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.recording || j.structural || j.overflowed {
		return
	}
	if j.ft.Get(table).Type != FrameL1 {
		j.structural = true
		j.stats.Structural++
		return
	}
	if len(j.entries) >= j.capacity {
		j.overflowed = true
		j.stats.Overflows++
		return
	}
	j.entries = append(j.entries, JournalEntry{Table: table, Index: idx, Old: old, New: new})
	j.stats.Appends++
}

// RecordStructural marks the epoch as containing a change the journal
// cannot replay (root registered or released, table freed).
func (j *DirtyJournal) RecordStructural() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.recording || j.structural {
		return
	}
	j.structural = true
	j.stats.Structural++
}

// CheckConsistent verifies the journal's own bookkeeping invariants
// (part of the system-wide invariant sweep).
func (j *DirtyJournal) CheckConsistent() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.entries) > j.capacity {
		return fmt.Errorf("xen: journal holds %d entries over capacity %d",
			len(j.entries), j.capacity)
	}
	if j.recording && !j.snapshot {
		return fmt.Errorf("xen: journal recording without a frozen snapshot")
	}
	return nil
}

// CorruptEntryPick flips bits in the New field of a buffered entry that
// is the final store to its slot, so replay's memory-verification must
// reject it. The victim is chosen with pick (fault injection only).
// The returned closure restores the entry.
func (j *DirtyJournal) CorruptEntryPick(pick func(n int) int) (func(), error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.entries) == 0 {
		return nil, fmt.Errorf("xen: journal empty, nothing to corrupt")
	}
	// Final-store entries: a corrupted superseded entry would be masked
	// by slot condensation. Condense through the shared scratch and
	// collect each slot's last entry index, sorted ascending — the same
	// candidate order the old map-based scan produced, which seeded
	// chaos campaigns replay deterministically.
	j.condenseLocked()
	j.finals = j.finals[:0]
	for si := range j.slots {
		j.finals = append(j.finals, j.slots[si].last)
	}
	slices.Sort(j.finals)
	victim := int(j.finals[pick(len(j.finals))])
	saved := j.entries[victim]
	j.entries[victim].New = saved.New ^ hw.PTE(1<<hw.PageShift) // point one frame over
	return func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if victim < len(j.entries) {
			j.entries[victim] = saved
		}
	}, nil
}

// JournalDetach is the journal policy's detach path: instead of
// releasing the frame accounting it freezes it and arms the ring.
// Detach cost is a constant arm charge — cheaper even than the
// touched-proportional release.
func (v *VMM) JournalDetach(c *hw.CPU, d *Domain) {
	j := v.journal
	if j == nil {
		v.ReleaseFrameInfo(c, d)
		return
	}
	c.Charge(v.M.Costs.FrameRelease)
	j.Arm()
}

// journalSlot is one condensed slot: the first recorded old value and
// the last recorded new value of a (table, index) pair, plus the index
// of the last entry that stored to it (fault injection targets final
// stores; superseded ones are masked by condensation).
type journalSlot struct {
	table    hw.PFN
	idx      int
	firstOld hw.PTE
	lastNew  hw.PTE
	last     int32
}

// ensureScratch sizes the reusable replay scratch once. The hash is a
// power of two at least twice the ring capacity, so its load factor
// stays at or below one half.
func (j *DirtyJournal) ensureScratch() {
	if j.slotHash != nil {
		return
	}
	size := 2
	for size < 2*j.capacity {
		size <<= 1
	}
	j.slotHash = make([]slotHashCell, size)
	j.slots = make([]journalSlot, 0, j.capacity)
	n := j.ft.NumFrames()
	j.deltaRefs = make([]int64, n)
	j.deltaWr = make([]int64, n)
	j.deltaEpoch = make([]uint64, n)
	j.deltaOrder = make([]hw.PFN, 0, 2*j.capacity)
	j.finals = make([]int32, 0, j.capacity)
}

// condenseLocked rebuilds j.slots from j.entries in first-touch order
// (j.mu held). Allocation-free after warm-up: slots are reused and the
// hash clears by epoch bump.
func (j *DirtyJournal) condenseLocked() {
	j.ensureScratch()
	j.slots = j.slots[:0]
	j.hashEpoch++
	mask := uint64(len(j.slotHash) - 1)
	for ei := range j.entries {
		e := &j.entries[ei]
		key := uint64(e.Table)<<16 | uint64(e.Index)
		pos := (key * 0x9E3779B97F4A7C15 >> 32) & mask
		for {
			cell := &j.slotHash[pos]
			if cell.epoch != j.hashEpoch {
				*cell = slotHashCell{epoch: j.hashEpoch, key: key, slot: int32(len(j.slots))}
				j.slots = append(j.slots, journalSlot{
					table: e.Table, idx: e.Index,
					firstOld: e.Old, lastNew: e.New, last: int32(ei),
				})
				break
			}
			if cell.key == key {
				s := &j.slots[cell.slot]
				s.lastNew = e.New
				s.last = int32(ei)
				break
			}
			pos = (pos + 1) & mask
		}
	}
}

// deltaTouch marks pfn as carrying a delta this replay, zeroing its
// accumulators on first touch.
func (j *DirtyJournal) deltaTouch(pfn hw.PFN) {
	if j.deltaEpoch[pfn] != j.deltaSeen {
		j.deltaEpoch[pfn] = j.deltaSeen
		j.deltaRefs[pfn] = 0
		j.deltaWr[pfn] = 0
		j.deltaOrder = append(j.deltaOrder, pfn)
	}
}

// JournalReattach is the journal policy's attach path: replay the
// journaled slots against the frozen snapshot, or fall back to a full
// recompute when the epoch degraded (first attach, overflow, structural
// change). workers is forwarded to the recompute on the fallback path.
func (v *VMM) JournalReattach(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	j := v.journal
	if j == nil {
		return v.RecomputeFrameInfo(c, d, roots, workers)
	}
	// The MMU lock masks interrupts, so the journal lock nested inside
	// it never spans a Charge that could deliver one.
	v.mmu.Lock(c)
	j.mu.Lock()
	canReplay := j.snapshot && j.recording && !j.overflowed && !j.structural
	if !canReplay {
		j.stats.Fallbacks++
		j.mu.Unlock()
		v.mmu.Unlock(c)
		return v.journalFallback(c, d, roots, workers)
	}
	defer v.mmu.Unlock(c)
	defer j.mu.Unlock()
	if err := v.replayLocked(c, d, j); err != nil {
		// Nothing was applied and the ring is intact: after the switch's
		// rollback, a retry (with the fault undone) can still replay.
		j.stats.ReplayErrors++
		return err
	}
	j.stats.Replays++
	j.entries = j.entries[:0]
	j.recording = false
	j.snapshot = false
	return nil
}

// journalFallback rebuilds the accounting from scratch: drop the stale
// snapshot (charged per touched frame, not per table entry) and run the
// full recompute. The stale snapshot must never be walk-released —
// memory has moved on since it was taken.
func (v *VMM) journalFallback(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	j := v.journal
	j.Disarm()
	v.mmu.Lock(c)
	for root := range d.pinnedRoots {
		delete(d.pinnedRoots, root)
	}
	v.FT.ResetCharged(c, v.M.Costs.FrameRelease)
	v.mmu.Unlock(c)
	return v.RecomputeFrameInfo(c, d, roots, workers)
}

// replayLocked verifies and applies the journal (MMU lock and j.mu
// held). Phase 1 condenses entries per slot and checks each slot's final
// value against memory — the corruption detector. Phase 2 accumulates
// the frame deltas and validates them against the snapshot's type
// system. Phase 3 applies; nothing is written before everything has
// validated.
//
// All working state lives in the journal's reusable scratch, so replay
// allocates nothing after its first run.
func (v *VMM) replayLocked(c *hw.CPU, d *Domain, j *DirtyJournal) error {
	// Phase 1: condense, in first-touch order.
	j.condenseLocked()
	c.Charge(v.M.Costs.JournalReplayEntry * hw.Cycles(len(j.slots)))
	j.stats.ReplaySlots += uint64(len(j.slots))

	j.deltaSeen++
	j.deltaOrder = j.deltaOrder[:0]
	for si := range j.slots {
		s := &j.slots[si]
		fi := v.FT.Get(s.table)
		if fi.Type != FrameL1 || fi.TypeCount == 0 {
			return fmt.Errorf("xen: journal replay: frame %d recorded as a table but snapshot says %s",
				s.table, fi.Type)
		}
		if cur := hw.ReadPTE(v.M.Mem, s.table, s.idx); cur != s.lastNew {
			return fmt.Errorf("xen: journal replay: table %d[%d] holds %#x, journal says %#x",
				s.table, s.idx, uint64(cur), uint64(s.lastNew))
		}
		if s.firstOld.Present() {
			pfn := s.firstOld.Frame()
			j.deltaTouch(pfn)
			j.deltaRefs[pfn]--
			if s.firstOld.Writable() {
				j.deltaWr[pfn]--
			}
		}
		if s.lastNew.Present() {
			pfn := s.lastNew.Frame()
			if !v.M.Mem.Valid(pfn) {
				return fmt.Errorf("xen: journal replay: mapping of nonexistent frame %d", pfn)
			}
			if owner := v.FT.Get(pfn).Owner; owner != d.ID && owner != DomVMM {
				return fmt.Errorf("xen: journal replay: dom%d mapping foreign frame %d (owner dom%d)",
					d.ID, pfn, owner)
			}
			j.deltaTouch(pfn)
			j.deltaRefs[pfn]++
			if s.lastNew.Writable() {
				j.deltaWr[pfn]++
			}
		}
	}

	// Phase 2: validate deltas against the snapshot.
	for _, pfn := range j.deltaOrder {
		fi := v.FT.Get(pfn)
		wr, refs := j.deltaWr[pfn], j.deltaRefs[pfn]
		if wr > 0 {
			// A new writable mapping: only legal on frames that are
			// untyped or already writable — never on a live page table.
			if fi.TypeCount > 0 && fi.Type != FrameWritable {
				return errType(pfn, fi.Type, fi.TypeCount, FrameWritable)
			}
		}
		if wr < 0 {
			if fi.Type != FrameWritable || int64(fi.TypeCount) < -wr {
				return fmt.Errorf("xen: journal replay: dropping %d writable refs from frame %d (%s, count %d)",
					-wr, pfn, fi.Type, fi.TypeCount)
			}
		}
		if refs < 0 && int64(fi.TotalRefs) < -refs {
			return fmt.Errorf("xen: journal replay: ref underflow on frame %d", pfn)
		}
	}

	// Phase 3: apply in frame order.
	apply := j.deltaOrder
	slices.Sort(apply)
	for _, pfn := range apply {
		fi := v.FT.Get(pfn)
		fi.TotalRefs = uint32(int64(fi.TotalRefs) + j.deltaRefs[pfn])
		tc := int64(fi.TypeCount)
		if wr := j.deltaWr[pfn]; wr != 0 {
			tc += wr
			if tc > 0 {
				fi.Type = FrameWritable
			} else {
				fi.Type = FrameNone
			}
		}
		fi.TypeCount = uint32(tc)
		v.FT.Set(pfn, fi)
	}
	return nil
}
