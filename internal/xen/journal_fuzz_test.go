package xen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hw"
)

// The native-mode ops FuzzJournalKeep runs between a journal detach and
// the next attach.
const (
	journalStore     = iota // a leaf entry stored into an L1 through the journal
	journalDirStore         // a directory entry stored through the journal: structural
	journalStructure        // a root registered or released
	journalBadRecord        // a record of a store memory never saw: replay must refuse it
	journalMemStore         // any value stored into any table entry, unjournaled
	journalRoots            // a root dropped from or added to the attach's roots
	journalCR3              // CR3 loaded with any forest table or the other domain's root
	journalTableOp          // a SetOwner or the chaos forgery of the spare frame
	journalSpoil            // the forgery of a forest table's record, which the keep holds
)

// journalNativeOp runs native op kind with argument bytes a, b, f and
// g, recording journaled stores by rec. It reports whether the op
// mutated the frame table or an owner, which leaves the keep nothing to
// rewind to.
func (x *relFuzzEnv) journalNativeOp(kind, a, b, f, g byte, roots *[]hw.PFN,
	rec func(j *DirtyJournal, table hw.PFN, idx int, old, new hw.PTE)) (spoils bool) {
	v, j := x.v, x.v.journal
	l1s := x.tables[len(x.roots):]
	if len(l1s) == 0 {
		l1s = x.tables
	}
	record := func(table hw.PFN, idx int, pte hw.PTE) {
		rec(j, table, idx, hw.ReadPTE(v.M.Mem, table, idx), pte)
		hw.WritePTE(v.M.Mem, table, idx, pte)
	}
	switch kind {
	case journalStore:
		flags := uint32(hw.PTEPresent | hw.PTEUser)
		if f&1 != 0 {
			flags |= hw.PTEWrite
		}
		target := x.data[int(b)%len(x.data)]
		if f&4 != 0 {
			target = x.tables[int(b)%len(x.tables)]
		}
		pte := hw.MakePTE(target, flags)
		if f&2 != 0 {
			pte = 0
		}
		record(l1s[int(a)%len(l1s)], int(g)%8, pte)
	case journalDirStore:
		var pde hw.PTE
		if f&1 != 0 {
			pde = hw.MakePTE(l1s[int(b)%len(l1s)], hw.PTEPresent|hw.PTEUser)
		}
		record(x.roots[int(a)%len(x.roots)], int(g)%4, pde)
	case journalStructure:
		j.RecordStructural()
	case journalBadRecord:
		table, idx := l1s[int(a)%len(l1s)], int(g)%8
		cur := hw.ReadPTE(v.M.Mem, table, idx)
		rec(j, table, idx, cur, cur^hw.PTE(1<<hw.PageShift))
	case journalMemStore:
		x.nativeOp(nativeMemStore, a, b, f, g, roots)
	case journalRoots:
		x.nativeOp(nativeRoots, a, b, f, g, roots)
	case journalCR3:
		x.nativeOp(nativeCR3, a, b, f, g, roots)
	case journalTableOp:
		if a&1 != 0 {
			return x.nativeOp(nativeSetOwner, a, b, f, g, roots)
		}
		return x.nativeOp(nativeForge, a, b, f, g, roots)
	case journalSpoil:
		table := x.tables[int(a)%len(x.tables)]
		v.FT.Set(table, v.FT.Get(table))
		return true
	}
	return false
}

// modelRecord is the model's DirtyJournal.Record: the table a store
// must land in to be replayable is an L1 of the live table.
func modelRecord(j *DirtyJournal, table hw.PFN, idx int, old, new hw.PTE) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.recording || j.structural || j.overflowed:
	case j.ft.Get(table).Type != FrameL1:
		j.structural = true
	case len(j.entries) >= j.capacity:
		j.overflowed = true
	default:
		j.entries = append(j.entries, JournalEntry{Table: table, Index: idx, Old: old, New: new})
	}
}

// modelJournalDetach is the detach of the model FuzzJournalKeep checks
// the journal against: one FrameRelease, the base pointer's refs
// dropped, and the table left live with its pins.
func modelJournalDetach(x *relFuzzEnv) {
	v, c := x.v, x.c
	c.Charge(v.M.Costs.FrameRelease)
	v.mmu.Lock(c)
	v.dropBaseptr(c, x.d)
	v.mmu.Unlock(c)
	v.journal.Arm()
}

// modelJournalAttach is the model's attach over roots. Where replay
// holds and the ring is whole it replays the ring onto the live table:
// every condensed slot checked against the table and memory, then each
// slot's refs moved, a refused slot rolling back those before it, and
// the base pointer adopted from CR3. Otherwise it unpins d by hand,
// charges one FrameRelease per frame touched since the last reset,
// resets and walks.
func modelJournalAttach(x *relFuzzEnv, roots []hw.PFN, replay bool) error {
	v, c, d, j := x.v, x.c, x.d, x.v.journal
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	j.mu.Lock()
	defer j.mu.Unlock()
	if !replay || !j.recording || j.overflowed || j.structural {
		j.stats.Fallbacks++
		j.entries, j.recording = j.entries[:0], false
		c.Charge(v.M.Costs.FrameRelease * hw.Cycles(v.FT.Touched()))
		v.rel.holders -= len(d.pinnedRoots)
		clear(d.pinnedRoots)
		v.rel.units = 0
		v.FT.Reset()
		return v.recomputeWalk(c, d, roots, 1)
	}
	j.condenseLocked()
	c.Charge(v.M.Costs.JournalReplayEntry * hw.Cycles(len(j.slots)))
	j.stats.ReplaySlots += uint64(len(j.slots))
	fail := func(err error) error {
		j.stats.ReplayErrors++
		return err
	}
	for _, s := range j.slots {
		if fi := v.FT.Get(s.table); fi.Type != FrameL1 || fi.TypeCount == 0 {
			return fail(fmt.Errorf("xen: journal replay: frame %d recorded as a table but the kept table says %s",
				s.table, fi.Type))
		}
		if cur := hw.ReadPTE(v.M.Mem, s.table, s.idx); cur != s.lastNew {
			return fail(fmt.Errorf("xen: journal replay: table %d[%d] holds %#x, journal says %#x",
				s.table, s.idx, uint64(cur), uint64(s.lastNew)))
		}
	}
	for si, s := range j.slots {
		if err := v.replaySlot(d, s.firstOld, s.lastNew); err != nil {
			for k := si - 1; k >= 0; k-- {
				if uerr := v.replaySlot(nil, j.slots[k].lastNew, j.slots[k].firstOld); uerr != nil {
					panic(uerr)
				}
			}
			return fail(fmt.Errorf("xen: journal replay: table %d[%d]: %w", s.table, s.idx, err))
		}
	}
	if root, ok := v.cr3Root(c, d); ok {
		if err := v.setBaseptr(c, d, root, sinkCharge); err != nil {
			panic(err)
		}
	}
	j.stats.Replays++
	j.entries, j.recording = j.entries[:0], false
	return nil
}

// FuzzJournalKeep checks the journal policy against a model that keeps
// the table live across a detach, replays the ring onto it, and walks
// where the journal falls back. Twin machines build FuzzReleaseRule's
// forest, start native with a four-entry ring each, and run the same
// ops: hypercalls while attached, and while native journaled leaf and
// directory stores, structural marks, records of stores memory never
// saw, unjournaled stores, roots dropped or added, CR3 loads, SetOwner,
// and forgeries of a spare frame and of a kept table. A detaches by
// JournalDetach and attaches by JournalReattach. The model replays
// exactly where the keep would serve: the ring is whole, no native op
// touched the table or an owner, the roots are the kept roots, and CR3
// holds a kept root or none of d's. After each attach the twins must
// agree on the error, frame tables, pins, base pointers, tallies,
// forgery flags, clocks and replay counts; after each detach A must
// hold no pin and no base pointer. An input ends at a replay over an
// unjournaled store, which no native kernel makes.
func FuzzJournalKeep(f *testing.F) {
	forest := []byte{1, 2, 0x11, 0, 0x01, 1, 1, 1, 1, 0, 2, 1, 2, 0, 1, 0x11, 2, 0}
	sw := []byte{9}
	seed := func(ops ...[]byte) []byte {
		return slices.Concat(append([][]byte{forest, sw}, ops...)...)
	}
	store := func(a, g byte) []byte { return []byte{journalStore, a, 1, 1, g} }
	// The first attach falls back; a detach, one journaled store and
	// an attach replay; a second round trip replays an empty ring.
	f.Add(seed(sw, store(0, 3), sw, sw, sw))
	// Five stores overflow the four-entry ring.
	f.Add(seed(sw, store(0, 1), store(0, 2), store(0, 3), store(0, 4), store(0, 5), sw))
	// A structural change, and a journaled directory store.
	f.Add(seed(sw, []byte{journalStructure, 0, 0, 0, 0}, sw))
	f.Add(seed(sw, []byte{journalDirStore, 1, 0, 1, 2}, sw))
	// The chaos forgery of the spare frame, and a SetOwner.
	f.Add(seed(sw, []byte{journalTableOp, 0, 0, 0, 0}, sw))
	f.Add(seed(sw, []byte{journalTableOp, 1, 0, 0, 0}, sw))
	// A forgery of a kept table's record spoils the keep.
	f.Add(seed(sw, []byte{journalSpoil, 0, 0, 0, 0}, sw))
	// A record of a store memory never saw is refused and the keep
	// stays; a real store to the slot then replays.
	f.Add(seed(sw, []byte{journalBadRecord, 0, 0, 0, 3}, sw, store(0, 3), sw))
	// A writable mapping of a table, after a valid store: the ref rule
	// refuses it, the valid slot rolls back and the keep stays; the
	// mapping cleared, the retry replays.
	f.Add(seed(sw, store(0, 2), []byte{journalStore, 0, 1, 5, 3}, sw, []byte{journalStore, 0, 0, 2, 3}, sw))
	// CR3 on a kept root: the replay adopts it as the base pointer.
	f.Add(seed([]byte{2, 0, 0, 0, 0}, sw, store(0, 3), sw))
	// A root dropped, CR3 on an L1, CR3 on another domain's root.
	f.Add(seed(sw, []byte{journalRoots, 1, 0, 0, 0}, sw))
	f.Add(seed(sw, []byte{journalCR3, 0, 2, 0, 0}, sw))
	f.Add(seed(sw, []byte{journalCR3, 1, 0, 0, 0}, sw))
	// A forgery while attached is kept with the epoch and replayed.
	f.Add(seed([]byte{7, 0, 0, 0, 0}, sw, sw))
	// An unjournaled store of a present directory entry, replayed over:
	// the input ends there, before an unpin walks the stale directory.
	f.Add(seed(sw, []byte{journalMemStore, 0, 0, 1, 0x30}, sw, []byte{1, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, in := newRelFuzzEnv(t, data)
		b, _ := newRelFuzzEnv(t, data)
		a.v.EnableJournal(4)
		b.v.EnableJournal(4)
		attached, forged, spoiled := false, false, false
		blind := false // an unjournaled store since the last walk: the tally cannot know it
		roots := slices.Clone(a.roots)
		var pins []hw.PFN // d's pins at the last detach, sorted
		for n := 0; len(in) > 0 && n < 32; n++ {
			kind := in.next() % 10
			if kind != 9 {
				x, y, z, w := in.next(), in.next(), in.next(), in.next()
				if !attached {
					spoils := a.journalNativeOp(kind, x, y, z, w, &roots, (*DirtyJournal).Record)
					b.journalNativeOp(kind, x, y, z, w, new([]hw.PFN), modelRecord)
					spoiled = spoiled || spoils
					blind = blind || kind == journalMemStore
					forged = forged || kind == journalSpoil || kind == journalTableOp && x&1 == 0
					continue
				}
				if kind >= 4 && kind <= 6 {
					// Grants and the other domain's pins would not
					// survive a fallback's reset, on either twin.
					continue
				}
				errA, errB := a.op(kind, x, y, z, w), b.op(kind, x, y, z, w)
				if errText(errA) != errText(errB) {
					t.Fatalf("op %d: twins disagree: %v vs %v", kind, errA, errB)
				}
				forged = forged || kind == 7
				if !blind {
					a.checkTally(t)
				}
				continue
			}
			if a.c.Now() != b.c.Now() {
				t.Fatalf("twins' clocks differ before a switch: %d vs %d", a.c.Now(), b.c.Now())
			}
			if attached {
				pins = a.d.PinnedRoots()
				a.v.JournalDetach(a.c, a.d)
				modelJournalDetach(b)
				if a.c.Now() != b.c.Now() {
					t.Fatalf("detach charged %d, the model %d", a.c.Now(), b.c.Now())
				}
				if len(a.d.pinnedRoots) != 0 || a.d.baseHeld {
					t.Fatalf("detach left pins %v, base pointer %v", a.d.PinnedRoots(), a.d.baseHeld)
				}
				if pfn, ok := a.v.FT.FirstPinned(); ok {
					t.Fatalf("frame %d pinned while native", pfn)
				}
				attached, spoiled = false, false
				continue
			}
			sorted := slices.Clone(roots)
			slices.Sort(sorted)
			replay := !spoiled && slices.Equal(sorted, pins)
			cr3 := a.c.ReadCR3()
			if _, ok := slices.BinarySearch(pins, cr3); !ok && a.v.M.Mem.Valid(cr3) && a.v.FT.Get(cr3).Owner == a.d.ID {
				replay = false
			}
			a0, fallbacks := a.c.Now(), a.v.journal.StatsSnapshot().Fallbacks
			errA := a.v.JournalReattach(a.c, a.d, roots, 1)
			errB := modelJournalAttach(b, roots, replay)
			if errText(errA) != errText(errB) {
				t.Fatalf("journal and model disagree: %v vs %v", errA, errB)
			}
			if a.c.Now() != b.c.Now() {
				t.Fatalf("journal charged %d, the model %d", a.c.Now()-a0, b.c.Now()-a0)
			}
			sa, sb := a.v.journal.StatsSnapshot(), b.v.journal.StatsSnapshot()
			if sa.Replays != sb.Replays || sa.ReplaySlots != sb.ReplaySlots ||
				sa.ReplayErrors != sb.ReplayErrors || sa.Fallbacks != sb.Fallbacks {
				t.Fatalf("journal stats %+v, the model's %+v", sa, sb)
			}
			if errA != nil && sa.Fallbacks == fallbacks {
				// A refused replay: A is native on its keep, the model on
				// its live table.
				if len(a.d.pinnedRoots) != 0 || a.d.baseHeld || a.v.rel != (releaseTally{}) {
					t.Fatalf("a refused replay left pins %v, base pointer %v, tally %+v",
						a.d.PinnedRoots(), a.d.baseHeld, a.v.rel)
				}
				continue
			}
			if sa.Fallbacks != fallbacks {
				// The fallback reset the table and walked memory.
				forged, blind = false, false
			}
			if err := a.v.FT.Equal(b.v.FT); err != nil {
				t.Fatalf("journal and model leave different tables: %v", err)
			}
			if pa, pb := a.d.PinnedRoots(), b.d.PinnedRoots(); !slices.Equal(pa, pb) {
				t.Fatalf("pins %v vs %v", pa, pb)
			}
			if a.d.baseHeld != b.d.baseHeld || a.d.baseptr != b.d.baseptr {
				t.Fatalf("base pointers differ: %v %d vs %v %d", a.d.baseHeld, a.d.baseptr, b.d.baseHeld, b.d.baseptr)
			}
			if !forged && a.v.rel != b.v.rel {
				t.Fatalf("tallies differ after an attach: %+v vs %+v", a.v.rel, b.v.rel)
			}
			if a.v.FT.forged != b.v.FT.forged {
				t.Fatalf("forged record flag %v, the model's %v", a.v.FT.forged, b.v.FT.forged)
			}
			if errA == nil && blind {
				// A replay over an unjournaled store leaves both twins
				// with records memory no longer matches: no op that
				// walks memory against them is defined after it.
				return
			}
			if errA == nil {
				a.checkTally(t)
			}
			attached = errA == nil
		}
	})
}
