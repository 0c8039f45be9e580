package xen

import "repro/internal/hw"

// Detach by a cost rule: the recompute policy's frame release charged
// without walking the trees it releases.
//
// The walk (releaseWalk) drops the base pointer and every pinned root
// through devalidateL2/devalidateL1. It charges one FrameRelease per
// directory whose last typed ref it drops and one per present entry of
// each L1 whose last typed ref it drops, and it reads all PTEntries
// entries of every table to find them. When the domain's pins and base
// pointer are the only holders of refs in the table, the walk drops
// every typed table, so it charges one unit per validated L2 plus one
// per present entry of each validated L1, and it leaves every record's
// accounting zero.
//
// releaseTally keeps that charge current as tables are validated,
// updated and released, so a detach can charge it in one Charge and
// forget the table with FrameTable.Reset, which starts a new epoch and
// writes no record. The switch ISR runs with interrupts
// off (and the MMU lock masks them besides), so one summed charge
// delivers nothing earlier than the walk's steps would.
//
// The rule holds only while a reset leaves the table the walk leaves,
// so ReleaseFrameInfo walks (ruleApplies) when
//   - a grant mapping still holds an existence ref;
//   - another live domain holds pins or a base pointer;
//   - the base pointer holds a directory the domain has unpinned, whose
//     release was charged at the unpin (unpinTable);
//   - the table was written through FrameTable.Set, whose records no
//     walk accounts for and which a reset would erase.
//
// FuzzReleaseRule runs the rule and the walk on twin machines and
// requires equal tables, pins and clocks.

// releaseTally is the release rule's running state, guarded by the MMU
// lock.
type releaseTally struct {
	units   int // FrameRelease units the walk would charge (see above)
	holders int // pinned roots plus held base pointers, over every domain
	grants  int // grant mappings not yet unmapped
}

// ruleApplies reports whether a reset leaves the table the walk of d's
// pins and base pointer leaves.
func (v *VMM) ruleApplies(d *Domain) bool {
	own := len(d.pinnedRoots)
	if d.baseHeld {
		if !d.pinnedRoots[d.baseptr] {
			return false
		}
		own++
	}
	return v.rel.grants == 0 && v.rel.holders == own && !v.FT.forged
}

// ReleaseFrameInfo forgets the accounting for an adopted domain when the
// VMM detaches, its pins and the base pointer's refs included: cheap,
// which is why switching back to native mode takes only ~0.06 ms (§7.4).
// It releases by the rule above, and by the walk where the rule does
// not hold. A rule release on a one-CPU machine keeps the epoch it
// forgets for the next attach (attach.go).
func (v *VMM) ReleaseFrameInfo(c *hw.CPU, d *Domain) {
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	if !v.ruleApplies(d) {
		v.keep.d = nil
		v.releaseWalk(c, d, sinkCharge)
		return
	}
	c.Charge(v.M.Costs.FrameRelease * hw.Cycles(v.rel.units))
	v.keepEpoch(c, d)
	if !v.keepTables() {
		v.keep.d = nil
		v.FT.Reset()
	}
}

// releaseWalk drops d's base pointer and unpins every root it pinned,
// sending each released table's cost to s (MMU lock held).
func (v *VMM) releaseWalk(c *hw.CPU, d *Domain, s sink) {
	v.dropBaseptr(c, d)
	for root := range d.pinnedRoots {
		delete(d.pinnedRoots, root)
		v.rel.holders--
		v.FT.setPinned(root, false)
		v.devalidateL2(c, root, s)
		v.FT.PutRef(root)
	}
}
