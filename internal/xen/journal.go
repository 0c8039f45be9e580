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
// checked against what memory actually contains before anything is
// applied (a corrupted or forged record mismatches and fails the attach,
// feeding the failure-resistant switch's rollback). Each slot then goes
// through mmu_update's ref rule for a leaf entry against the snapshot's
// type system, and a slot that rule refuses rolls back the slots
// already applied.

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
	// open-addressing hash instead of a per-call map, so replay
	// performs zero heap allocation after warm-up — the attach path's
	// AllocsPerRun gate depends on it.
	slots     []journalSlot
	slotHash  []slotHashCell
	hashEpoch uint64
	finals    []int32
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
	// The frozen snapshot holds no base pointer: the native kernel loads
	// CR3 without the VMM, so the re-attach adopts whichever directory
	// CR3 then holds.
	v.mmu.Lock(c)
	v.dropBaseptr(c, d)
	v.mmu.Unlock(c)
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
	// The base pointer's directory must be one the snapshot holds pinned;
	// any other needs a full validation, which is the fallback's job.
	root, hasRoot := v.cr3Root(c, d)
	if hasRoot && !d.pinnedRoots[root] {
		canReplay = false
	}
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
	if hasRoot {
		// A pinned root: one more ref, which cannot fail.
		if err := v.setBaseptr(c, d, root, sinkCharge); err != nil {
			panic(fmt.Sprintf("xen: journal replay: base pointer: %v", err))
		}
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
	v.rel.holders -= len(d.pinnedRoots)
	clear(d.pinnedRoots)
	if d.baseHeld {
		v.rel.holders--
	}
	d.baseHeld = false
	v.rel.units = 0
	v.FT.ResetCharged(c, v.M.Costs.FrameRelease)
	v.mmu.Unlock(c)
	return v.RecomputeFrameInfo(c, d, roots, workers)
}

// replayLocked verifies and applies the journal (MMU lock and j.mu
// held). It condenses the entries per slot and checks each slot's final
// value against memory — the corruption detector — before applying
// anything. Then each slot in first-touch order takes the refs of its
// last new value and drops those of its first old one, as applyRun
// does for an L1 entry; a slot refused on the way rolls back the slots
// before it, so a failed replay leaves the snapshot as it was.
//
// All working state lives in the journal's reusable scratch, so replay
// allocates nothing after its first run.
func (v *VMM) replayLocked(c *hw.CPU, d *Domain, j *DirtyJournal) error {
	j.condenseLocked()
	c.Charge(v.M.Costs.JournalReplayEntry * hw.Cycles(len(j.slots)))
	j.stats.ReplaySlots += uint64(len(j.slots))
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
	}
	for si := range j.slots {
		s := &j.slots[si]
		if err := v.replaySlot(d, s.firstOld, s.lastNew); err != nil {
			// Roll back the applied prefix: each slot replays in reverse.
			for k := si - 1; k >= 0; k-- {
				if uerr := v.replaySlot(nil, j.slots[k].lastNew, j.slots[k].firstOld); uerr != nil {
					panic(fmt.Sprintf("xen: journal replay rollback: %v", uerr))
				}
			}
			return fmt.Errorf("xen: journal replay: table %d[%d]: %w", s.table, s.idx, err)
		}
	}
	return nil
}

// replaySlot moves a leaf entry's refs from the frame of from to the
// frame of to, as applyRun does for an L1 entry: it takes to's refs
// for d (nil: unchecked), then drops from's. from is an untrusted
// record, not a walked entry, so its drop is checked first — a writable
// mapping must hold a writable typed ref, any other an untyped one —
// and a ref the frame does not hold is an error, never an underflow
// panic. Nothing changes on an error.
func (v *VMM) replaySlot(d *Domain, from, to hw.PTE) error {
	if from.Present() {
		pfn := from.Frame()
		if !v.M.Mem.Valid(pfn) {
			return fmt.Errorf("xen: old mapping of nonexistent frame %d", pfn)
		}
		f := v.FT.read(pfn)
		held := f.totalRefs > f.typeCount
		if from.Writable() {
			held = f.typ == FrameWritable && f.typeCount > 0
		}
		if !held {
			return fmt.Errorf("xen: old mapping %#x holds no ref on frame %d (%s, count %d of %d)",
				uint64(from), pfn, f.typ, f.typeCount, f.totalRefs)
		}
	}
	if to.Present() {
		if err := v.refMapping(d, to); err != nil {
			return err
		}
		v.rel.units++
	}
	if from.Present() {
		v.unrefMapping(from)
		v.rel.units--
	}
	return nil
}
