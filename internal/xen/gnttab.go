package xen

import (
	"fmt"

	"repro/internal/hw"
)

// GrantRef names one grant-table entry of a domain.
type GrantRef int

// grantEntry records that a domain has granted another domain access to
// one of its frames. Split drivers grant the frames holding I/O buffers
// so the backend can map them instead of copying through the VMM.
type grantEntry struct {
	inUse    bool
	toDom    DomID
	pfn      hw.PFN
	readonly bool
	mapped   int
}

// GrantAccess publishes pfn to dom. Guest-local table write (real guests
// write their grant table page directly), so no hypercall cost. Freed
// refs are recycled through a free-list, so allocation is O(1) and the
// single MemWrite charge does not scale with table occupancy — a
// datapath granting from a fragmented table pays the same as from a
// fresh one.
func (d *Domain) GrantAccess(c *hw.CPU, to DomID, pfn hw.PFN, readonly bool) GrantRef {
	c.Charge(d.VMM.M.Costs.MemWrite)
	if n := len(d.grantFree); n > 0 {
		ref := d.grantFree[n-1]
		d.grantFree = d.grantFree[:n-1]
		*d.grants[ref] = grantEntry{inUse: true, toDom: to, pfn: pfn, readonly: readonly}
		return ref
	}
	d.grants = append(d.grants, &grantEntry{inUse: true, toDom: to, pfn: pfn, readonly: readonly})
	return GrantRef(len(d.grants) - 1)
}

// GrantEnd revokes a grant once unmapped and returns the ref to the
// free-list for O(1) reuse.
func (d *Domain) GrantEnd(c *hw.CPU, ref GrantRef) error {
	c.Charge(d.VMM.M.Costs.MemWrite)
	if ref < 0 || int(ref) >= len(d.grants) || !d.grants[ref].inUse {
		return fmt.Errorf("xen: dom%d ending invalid grant %d", d.ID, ref)
	}
	if d.grants[ref].mapped != 0 {
		return fmt.Errorf("xen: dom%d grant %d still mapped", d.ID, ref)
	}
	d.grants[ref].inUse = false
	d.grantFree = append(d.grantFree, ref)
	return nil
}

// grantTo returns the entry behind d's grant ref, checking that it is
// live, granted to mapper with the access asked for, and names an
// existing frame that d owns (GrantMap, GrantMapBatch).
//
// The owner is read without the MMU lock: only building a domain
// (newDomain) and fault injection (FrameTable.Set) write it, and
// domain building also writes v.Domains, which every grant map reads
// unlocked just before this; so the callers already keep domain
// creation and grant maps apart.
func (d *Domain) grantTo(mapper *Domain, ref GrantRef, writable bool) (*grantEntry, error) {
	if ref < 0 || int(ref) >= len(d.grants) {
		return nil, fmt.Errorf("xen: dom%d has no grant %d", d.ID, ref)
	}
	g := d.grants[ref]
	if !g.inUse || g.toDom != mapper.ID {
		return nil, fmt.Errorf("xen: dom%d grant %d not granted to dom%d",
			d.ID, ref, mapper.ID)
	}
	if writable && g.readonly {
		return nil, fmt.Errorf("xen: dom%d grant %d is read-only, dom%d maps it writable",
			d.ID, ref, mapper.ID)
	}
	if !d.VMM.M.Mem.Valid(g.pfn) {
		return nil, fmt.Errorf("xen: dom%d grant %d names frame %d beyond memory",
			d.ID, ref, g.pfn)
	}
	if owner := d.VMM.FT.Get(g.pfn).Owner; owner != d.ID {
		return nil, fmt.Errorf("xen: dom%d grant %d names frame %d owned by dom%d",
			d.ID, ref, g.pfn, owner)
	}
	return g, nil
}

// GrantMap gives the calling (backend) domain access to the frame behind
// (granterID, ref), writable access when writable (which a read-only
// grant refuses). A map holds an existence ref on the frame, and a
// writable map also a FrameWritable type ref, as a writable PTE does,
// so a frame typed as a page table cannot be mapped writable and a
// frame mapped writable cannot become one. It returns the frame and an
// unmap closure. This is the grant_table_op hypercall.
func (v *VMM) GrantMap(c *hw.CPU, d *Domain, granterID DomID, ref GrantRef, writable bool) (hw.PFN, func(), error) {
	defer v.exit(c, d, v.enter(c, d))
	granter, ok := v.Domains[granterID]
	if !ok {
		return 0, nil, fmt.Errorf("xen: grant map from nonexistent dom%d", granterID)
	}
	g, err := granter.grantTo(d, ref, writable)
	if err != nil {
		return 0, nil, err
	}
	c.Charge(v.M.Costs.GrantMap)
	entries := [1]*grantEntry{g}
	pfns := [1]hw.PFN{g.pfn}
	v.mmu.Lock(c)
	err = v.grantRefs(entries[:], pfns[:], writable)
	v.mmu.Unlock(c)
	if err != nil {
		return 0, nil, err
	}
	unmapped := false
	return pfns[0], func() {
		if unmapped {
			return
		}
		unmapped = true
		v.grantUnmapBatch(c, entries[:], pfns[:], writable)
	}, nil
}

// grantRefs takes the refs the grant maps of entries hold on pfns, the
// frames they name: an existence ref each, and a FrameWritable type ref
// each when writable. A frame that holds another type fails the whole
// set with nothing taken (MMU lock held).
func (v *VMM) grantRefs(entries []*grantEntry, pfns []hw.PFN, writable bool) error {
	if writable {
		// Every ref asked for is FrameWritable, so one taken cannot
		// fail a later one: checking them all first keeps the set whole.
		for _, pfn := range pfns {
			if f := v.FT.read(pfn); f.typeCount != 0 && f.typ != FrameWritable {
				return errType(pfn, f.typ, f.typeCount, FrameWritable)
			}
		}
	}
	for i, g := range entries {
		f := &v.FT.frames[pfns[i]]
		if writable {
			// Cannot fail: checked above.
			_ = v.FT.getType(f, pfns[i], FrameWritable)
		}
		v.FT.getRef(f, pfns[i])
		g.mapped++
	}
	v.rel.grants += len(entries)
	return nil
}

// GrantMapBatch maps a burst of grants from one granter in a single
// grant_table_op: one VMM entry and one MMU lock acquisition amortized
// over the whole ring-slot burst, with the per-ref GrantMap work still
// charged, each ref with the access writable asks for and holding the
// refs GrantMap's does. Returns the frames in ref order and one
// idempotent unmap closure. Validation is all-or-nothing — any bad ref,
// or a writable map of a frame typed otherwise, fails the batch with
// nothing mapped.
func (v *VMM) GrantMapBatch(c *hw.CPU, d *Domain, granterID DomID, refs []GrantRef, writable bool) ([]hw.PFN, func(), error) {
	entries, pfns, err := v.grantMapBatch(c, d, granterID, refs, writable,
		make([]*grantEntry, 0, len(refs)), make([]hw.PFN, 0, len(refs)))
	if err != nil {
		return nil, nil, err
	}
	unmapped := false
	return pfns, func() {
		if unmapped {
			return
		}
		unmapped = true
		v.grantUnmapBatch(c, entries, pfns, writable)
	}, nil
}

// grantMapBatch is GrantMapBatch into caller-owned scratch: it reuses
// entries' and pfns' backing arrays, returns them holding the mapped
// entries and frames in ref order, and leaves the unmap to
// grantUnmapBatch. On an error nothing is mapped.
func (v *VMM) grantMapBatch(c *hw.CPU, d *Domain, granterID DomID, refs []GrantRef, writable bool,
	entries []*grantEntry, pfns []hw.PFN) ([]*grantEntry, []hw.PFN, error) {
	defer v.exit(c, d, v.enter(c, d))
	entries, pfns = entries[:0], pfns[:0]
	granter, ok := v.Domains[granterID]
	if !ok {
		return entries, pfns, fmt.Errorf("xen: grant map from nonexistent dom%d", granterID)
	}
	for _, ref := range refs {
		g, err := granter.grantTo(d, ref, writable)
		if err != nil {
			return entries[:0], pfns[:0], err
		}
		entries = append(entries, g)
		pfns = append(pfns, g.pfn)
	}
	c.Charge(v.M.Costs.GrantMap * hw.Cycles(len(refs)))
	v.mmu.Lock(c)
	err := v.grantRefs(entries, pfns, writable)
	v.mmu.Unlock(c)
	if err != nil {
		return entries[:0], pfns[:0], err
	}
	if h := v.tel(); h != nil {
		h.grantBatches.Inc()
		h.grantBatchRefs.Add(uint64(len(refs)))
	}
	return entries, pfns, nil
}

// grantUnmapBatch undoes one successful grantMapBatch, or GrantMap,
// whose maps were writable when writable.
func (v *VMM) grantUnmapBatch(c *hw.CPU, entries []*grantEntry, pfns []hw.PFN, writable bool) {
	v.mmu.Lock(c)
	for i, g := range entries {
		g.mapped--
		f := &v.FT.frames[pfns[i]]
		if writable {
			v.FT.putType(f, pfns[i])
		}
		v.FT.putRef(f, pfns[i])
	}
	v.rel.grants -= len(entries)
	v.mmu.Unlock(c)
}
