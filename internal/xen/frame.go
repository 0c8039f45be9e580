package xen

import (
	"fmt"
	"slices"

	"repro/internal/hw"
)

// DomID identifies a domain. The driver domain (domain0 in stock Xen, or
// the self-virtualized Mercury OS) is Dom0.
type DomID uint16

// Dom0 is the driver domain's ID. DomVMM marks frames owned by the VMM
// itself (its pre-cached footprint); DomNone owns the frames no domain
// was given, such as frame 0 and memory still in the boot allocator.
const (
	Dom0    DomID = 0
	DomNone DomID = 0xFFFE
	DomVMM  DomID = 0xFFFF
)

// FrameType is the exclusive use a physical frame is validated for. A
// frame can be re-typed only when its type count has dropped to zero;
// this is what guarantees a live page-table page is never writable by a
// guest (§5.1.2).
type FrameType uint8

const (
	FrameNone     FrameType = iota // no validated use
	FrameWritable                  // mapped writable somewhere
	FrameL1                        // validated page-table (leaf) page
	FrameL2                        // validated page-directory page
)

func (t FrameType) String() string {
	switch t {
	case FrameNone:
		return "none"
	case FrameWritable:
		return "writable"
	case FrameL1:
		return "L1"
	case FrameL2:
		return "L2"
	}
	return fmt.Sprintf("type%d", uint8(t))
}

// FrameInfo is the VMM's bookkeeping for one physical frame: who owns it,
// what it is validated as, how many references hold that type, and how
// many references exist at all. This is exactly the state Mercury must
// refill when a pre-cached VMM is activated (§5.1.2): in native mode the
// VMM is inert and the table goes stale.
type FrameInfo struct {
	Owner     DomID
	Type      FrameType
	TypeCount uint32 // references holding the current type
	TotalRefs uint32 // all references (existence count)
	Pinned    bool   // explicitly pinned as a page-table root or table
}

// frame is one physical frame's record: its owner, its accounting and
// its epoch stamp, packed into 16 bytes so four frames share a cache
// line and a reference update touches one line, as Xen keeps owner,
// type and counts together in one struct page_info per frame.
// Everything but owner and epoch is accounting, and it counts only in
// the epoch it is stamped with: a record stamped in an earlier epoch
// reads as zero accounting (FrameTable.read), and its first mutation
// clears it in place (renew). Owners outlive epochs. owner is stored
// biased by DomNone (see ownerID), so a zeroed record has no owner and
// make needs no pass to set one.
type frame struct {
	owner     DomID
	typ       FrameType
	pinned    bool
	typeCount uint32 // references holding the current type
	totalRefs uint32 // all references (existence count)
	epoch     uint32 // the FrameTable epoch that last mutated the accounting
}

// ownerID returns the frame's owner.
func (f *frame) ownerID() DomID { return f.owner + DomNone }

// setOwner makes d the frame's owner.
func (f *frame) setOwner(d DomID) { f.owner = d - DomNone }

// info copies the record out as a FrameInfo.
func (f frame) info() FrameInfo {
	return FrameInfo{
		Owner:     f.ownerID(),
		Type:      f.typ,
		TypeCount: f.typeCount,
		TotalRefs: f.totalRefs,
		Pinned:    f.pinned,
	}
}

// FrameTable is the VMM's per-frame accounting: one frame record per
// physical frame, so ownership, type, pin and counts of a frame sit in
// one cache line. Ownership persists across detach/attach cycles;
// Reset forgets everything else.
//
// It forgets by epoch. Each accounting mutation stamps its record with
// the table's epoch and, on the first stamp of an epoch, appends the
// frame to the touched list, so the touched list is exactly the frames
// whose accounting counts. Reset starts the next epoch, in which every
// record reads as zero until a mutation renews it: no record is
// written. A recompute-policy detach resets the table this way when its
// release rule holds (release.go), charging what the walk would have
// charged, and on one CPU keeps the epoch instead (keep); a journal
// detach keeps it on any number of CPUs (journal.go). The next attach
// rewinds to the kept epoch (rewind, attach.go), and its records count
// again.
type FrameTable struct {
	frames    []frame
	touched   []hw.PFN
	kept      []hw.PFN // the kept epoch's touched list (keep)
	epoch     uint32
	keptEpoch uint32 // the epoch keep kept, while rewind may return to it; 0 for none
	forged    bool   // a record was written through Set since the last Reset
	owners    uint64 // SetOwner and Set calls ever made: a record's owner may have moved
}

// NewFrameTable builds accounting for every frame of mem, every frame
// owned by DomNone.
func NewFrameTable(mem *hw.PhysMem) *FrameTable {
	n := mem.NumFrames()
	return &FrameTable{
		frames: make([]frame, n),
		// touched is pre-sized to the table: the first attach dirties a
		// large fraction of the working set, and append-growth there
		// would reallocate the dirty set several times mid-recompute.
		touched: make([]hw.PFN, 0, n),
		epoch:   1,
	}
}

// read returns pfn's record as the current epoch reads it, writing
// nothing: accounting stamped in an earlier epoch reads as zero.
func (ft *FrameTable) read(pfn hw.PFN) frame {
	f := ft.frames[pfn]
	if f.epoch != ft.epoch {
		return frame{owner: f.owner}
	}
	return f
}

// renew clears f's accounting in place if an earlier epoch stamped it,
// before the mutation that follows. The stamp stays, so the frame is not
// yet touched; clearing a record of the kept epoch spoils the keep,
// since rewind would bring it back zeroed.
func (ft *FrameTable) renew(f *frame) {
	if f.epoch != ft.epoch {
		if f.epoch == ft.keptEpoch {
			ft.keptEpoch = 0
		}
		*f = frame{owner: f.owner, epoch: f.epoch}
	}
}

// touch records f, the record of pfn, as dirtied in the current epoch
// (deduplicated). Every accounting mutation calls it, after renew.
func (ft *FrameTable) touch(f *frame, pfn hw.PFN) {
	if f.epoch != ft.epoch {
		f.epoch = ft.epoch
		ft.touched = append(ft.touched, pfn)
	}
}

// Touched returns how many distinct frames have had accounting mutations
// since the last Reset.
func (ft *FrameTable) Touched() int { return len(ft.touched) }

// Get returns a copy of the frame's info.
func (ft *FrameTable) Get(pfn hw.PFN) FrameInfo { return ft.read(pfn).info() }

// SetOwner assigns a frame to a domain.
func (ft *FrameTable) SetOwner(pfn hw.PFN, d DomID) {
	ft.frames[pfn].setOwner(d)
	ft.owners++
}

// Set overwrites a frame's accounting entry wholesale. This deliberately
// bypasses the type system — it exists for fault injection (bit-flips in
// the accounting array) and for restoring a saved entry afterwards.
func (ft *FrameTable) Set(pfn hw.PFN, fi FrameInfo) {
	f := &ft.frames[pfn]
	ft.renew(f)
	f.setOwner(fi.Owner)
	f.typ = fi.Type
	f.pinned = fi.Pinned
	f.typeCount = fi.TypeCount
	f.totalRefs = fi.TotalRefs
	ft.touch(f, pfn)
	ft.forged = true
	ft.owners++
}

// Reset forgets type/count state for every frame while preserving
// ownership. A detach (virtual -> native switch) resets the table; the
// next attach recomputes it. Reset only starts the next epoch: every
// record's accounting was stamped in this one, so all of it now reads
// as zero, and no record is written.
func (ft *FrameTable) Reset() {
	ft.forged = false
	ft.nextEpoch()
}

// keep is Reset that keeps the epoch it ends for rewind: its touched
// list moves to the keep (the two lists swap buffers), and its records
// stay where they are, read as zero until a rewind. A forged record
// stays forged.
func (ft *FrameTable) keep() {
	k := ft.epoch
	ft.touched, ft.kept = ft.kept[:0], ft.touched
	ft.nextEpoch()
	if ft.epoch == k+1 { // no wrap, which zeroed the kept records
		ft.keptEpoch = k
	}
}

// rewind returns to the epoch keep kept, with its touched list, and
// reports whether it could: only while nothing has been touched since
// the keep and no kept record has been cleared. Nothing is stamped in
// the epoch it leaves, so no record changes meaning but the kept ones.
func (ft *FrameTable) rewind() bool {
	if ft.keptEpoch == 0 || len(ft.touched) != 0 {
		return false
	}
	ft.epoch, ft.keptEpoch = ft.keptEpoch, 0
	ft.touched, ft.kept = ft.kept, ft.touched
	return true
}

// keptTouched returns how many distinct frames the kept epoch and the
// current one have touched, after a keep: a kept frame touched since is
// stamped with the current epoch, and counts once.
func (ft *FrameTable) keptTouched() int {
	n := len(ft.kept) + len(ft.touched)
	for _, pfn := range ft.kept {
		if ft.frames[pfn].epoch == ft.epoch {
			n--
		}
	}
	return n
}

// nextEpoch empties the touched list, drops any keep, and starts the
// next epoch.
func (ft *FrameTable) nextEpoch() {
	ft.touched = ft.touched[:0]
	ft.keptEpoch = 0
	ft.epoch++
	if ft.epoch == 0 {
		// The stamp wrapped: a record stamped 2^32 epochs ago would
		// count again. Zero every record's accounting and stamp.
		for i := range ft.frames {
			f := &ft.frames[i]
			*f = frame{owner: f.owner}
		}
		ft.epoch = 1
	}
}

// readKept returns pfn's record as the kept epoch reads it, writing
// nothing: zero accounting unless keep kept an epoch that stamped it.
func (ft *FrameTable) readKept(pfn hw.PFN) frame {
	f := ft.frames[pfn]
	if ft.keptEpoch == 0 || f.epoch != ft.keptEpoch {
		return frame{owner: f.owner}
	}
	return f
}

// errType reports a type-safety violation.
func errType(pfn hw.PFN, have FrameType, haveCount uint32, want FrameType) error {
	return fmt.Errorf("xen: frame %d is %s(count %d), cannot become %s",
		pfn, have, haveCount, want)
}

// GetType takes one typed reference on pfn as want. Re-typing is only
// legal when the current type count is zero. Taking the first FrameL1/L2
// reference does NOT validate entries here; validation is done by the
// pin/validate paths, which charge cycles.
func (ft *FrameTable) GetType(pfn hw.PFN, want FrameType) error {
	return ft.getType(&ft.frames[pfn], pfn, want)
}

// PutType drops one typed reference.
func (ft *FrameTable) PutType(pfn hw.PFN) { ft.putType(&ft.frames[pfn], pfn) }

// GetRef takes one existence reference.
func (ft *FrameTable) GetRef(pfn hw.PFN) { ft.getRef(&ft.frames[pfn], pfn) }

// PutRef drops one existence reference.
func (ft *FrameTable) PutRef(pfn hw.PFN) { ft.putRef(&ft.frames[pfn], pfn) }

// getType, putType, getRef and putRef are the four reference updates on
// a frame record f already loaded for pfn: the page-table walks load a
// frame's record once and apply all of an entry's updates to it.

func (ft *FrameTable) getType(f *frame, pfn hw.PFN, want FrameType) error {
	ft.renew(f)
	if f.typeCount != 0 && f.typ != want {
		return errType(pfn, f.typ, f.typeCount, want)
	}
	f.typ = want
	f.typeCount++
	ft.touch(f, pfn)
	return nil
}

func (ft *FrameTable) putType(f *frame, pfn hw.PFN) {
	ft.renew(f)
	if f.typeCount == 0 {
		panic(fmt.Sprintf("xen: type count underflow on frame %d", pfn))
	}
	f.typeCount--
	if f.typeCount == 0 {
		f.typ = FrameNone
	}
	ft.touch(f, pfn)
}

func (ft *FrameTable) getRef(f *frame, pfn hw.PFN) {
	ft.renew(f)
	f.totalRefs++
	ft.touch(f, pfn)
}

func (ft *FrameTable) putRef(f *frame, pfn hw.PFN) {
	ft.renew(f)
	if f.totalRefs == 0 {
		panic(fmt.Sprintf("xen: total ref underflow on frame %d", pfn))
	}
	f.totalRefs--
	ft.touch(f, pfn)
}

// setPinned flips the pin mark on a frame.
func (ft *FrameTable) setPinned(pfn hw.PFN, on bool) {
	f := &ft.frames[pfn]
	ft.renew(f)
	f.pinned = on
	ft.touch(f, pfn)
}

// CheckInvariants verifies the accounting invariants the property tests
// rely on. It returns the first violation found. A record of an earlier
// epoch reads as zero, which breaks none, so it is skipped.
func (ft *FrameTable) CheckInvariants() error {
	for pfn := range ft.frames {
		f := &ft.frames[pfn]
		if f.epoch != ft.epoch {
			continue
		}
		if f.typeCount > f.totalRefs {
			return fmt.Errorf("xen: frame %d: type count %d exceeds total refs %d",
				pfn, f.typeCount, f.totalRefs)
		}
		if f.typeCount > 0 && f.typ == FrameNone {
			return fmt.Errorf("xen: frame %d: %d typed refs but type none",
				pfn, f.typeCount)
		}
		if f.typeCount == 0 && f.typ != FrameNone {
			return fmt.Errorf("xen: frame %d: type %s with zero count",
				pfn, f.typ)
		}
		if f.pinned && f.typeCount == 0 {
			return fmt.Errorf("xen: frame %d pinned without a typed ref", pfn)
		}
	}
	return nil
}

// FirstPinned returns the lowest-numbered pinned frame, if any frame is
// pinned. Under the recompute and journal policies no frame may stay
// pinned while the OS runs natively.
func (ft *FrameTable) FirstPinned() (hw.PFN, bool) {
	for pfn := range ft.frames {
		if f := &ft.frames[pfn]; f.pinned && f.epoch == ft.epoch {
			return hw.PFN(pfn), true
		}
	}
	return 0, false
}

// Equal compares two tables entry by entry, owners and accounting as
// each table's epoch reads them, not stamps; the
// recompute-vs-active-tracking property test uses it.
func (ft *FrameTable) Equal(o *FrameTable) error {
	if len(ft.frames) != len(o.frames) {
		return fmt.Errorf("xen: frame tables differ in size")
	}
	for i := range ft.frames {
		if a, b := ft.Get(hw.PFN(i)), o.Get(hw.PFN(i)); a != b {
			return fmt.Errorf("xen: frame %d differs: %+v vs %+v", i, a, b)
		}
	}
	return nil
}

// Clone deep-copies the table.
func (ft *FrameTable) Clone() *FrameTable {
	return &FrameTable{
		frames:    slices.Clone(ft.frames),
		touched:   slices.Clone(ft.touched),
		kept:      slices.Clone(ft.kept),
		epoch:     ft.epoch,
		keptEpoch: ft.keptEpoch,
		forged:    ft.forged,
		owners:    ft.owners,
	}
}

// NumFrames returns the table size.
func (ft *FrameTable) NumFrames() int { return len(ft.frames) }
