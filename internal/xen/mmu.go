package xen

import (
	"fmt"

	"repro/internal/hw"
)

// Direct-mode paging (§3.2.2): guest page tables are installed in the
// hardware MMU directly, but every store to them must be validated by the
// VMM. Validation maintains the frame type system: a frame referenced as
// a page table (FrameL1/FrameL2) may never simultaneously be mapped
// writable, so a guest can never forge a mapping. Reference counting
// follows Xen's get_page_type/put_page_type discipline:
//
//   - each present PDE holds one typed FrameL1 ref and one existence ref
//     on the page-table frame it points to;
//   - each present PTE holds one existence ref on the data frame, plus
//     one typed FrameWritable ref when the mapping is writable;
//   - the first typed page-table ref on a frame triggers a full scan of
//     its entries (the expensive part of pinning, and of Mercury's
//     recompute-on-switch, §5.1.2).

// MMUUpdate is one entry store request.
type MMUUpdate struct {
	Table hw.PFN
	Index int
	New   hw.PTE
}

// getTypeFresh takes a typed page-table ref on pfn for d and reports
// whether this was the 0->1 transition (which obliges the caller to
// validate contents). Every frame typed as a table passes here — a
// pinned root, a new base pointer, an L2 update's target and each
// directory entry a walk reaches — so this is where a guest-named table
// frame must exist and, as Xen's owner check requires, belong to d.
func (v *VMM) getTypeFresh(d *Domain, pfn hw.PFN, want FrameType, s sink) (bool, error) {
	if !v.M.Mem.Valid(pfn) {
		return false, fmt.Errorf("xen: page table %d beyond memory", pfn)
	}
	f := &v.FT.frames[pfn]
	if d != nil && f.ownerID() != d.ID {
		return false, fmt.Errorf("xen: dom%d using foreign frame %d (owner dom%d) as %s",
			d.ID, pfn, f.ownerID(), want)
	}
	v.FT.renew(f) // the count as this epoch reads it; getType renews anyway
	fresh := f.typeCount == 0
	if err := v.FT.getType(f, pfn, want); err != nil {
		return false, err
	}
	if s == sinkTally {
		v.shards.claim(pfn, true)
	}
	return fresh, nil
}

// sink says where a page-table walk's cycles go.
type sink uint8

const (
	// sinkNone drops them: the active-tracking mirror (native mode,
	// §5.1.2 "first approach") runs the same validation with its own
	// small per-op cost charged by the caller, and a rollback is free.
	sinkNone sink = iota
	// sinkCharge charges each step to the CPU as it happens.
	sinkCharge
	// sinkTally adds each step to the current shard of a sharded attach
	// recompute and claims the frames it references
	// (recompute_parallel.go); the recompute charges the largest shard
	// once the walk is done.
	sinkTally
)

// cost sends n cycles of walk work to s.
func (v *VMM) cost(c *hw.CPU, s sink, n hw.Cycles) {
	switch s {
	case sinkCharge:
		c.Charge(n)
	case sinkTally:
		v.shards.cycles[v.shards.cur] += n
	}
}

// validateL1 takes a typed L1 ref on pt, scanning and referencing its
// entries if this is the first typed ref; a scan adds its present
// entries to the release tally.
func (v *VMM) validateL1(c *hw.CPU, d *Domain, pt hw.PFN, s sink) error {
	fresh, err := v.getTypeFresh(d, pt, FrameL1, s)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	v.cost(c, s, v.M.Costs.FrameValidate)
	table := hw.ViewTable(v.M.Mem, pt)
	present := 0
	for i := 0; i < hw.PTEntries; i++ {
		pte := table.At(i)
		if !pte.Present() {
			continue
		}
		present++
		v.cost(c, s, v.M.Costs.PTValidatePin)
		if err := v.refMapping(d, pte); err != nil {
			// Roll back what we validated so far.
			for j := 0; j < i; j++ {
				if p := table.At(j); p.Present() {
					v.unrefMapping(p)
				}
			}
			v.FT.PutType(pt)
			return fmt.Errorf("xen: validating L1 frame %d entry %d: %w", pt, i, err)
		}
	}
	if s == sinkTally {
		v.shards.claimEntries(table)
	}
	v.rel.units += present
	return nil
}

// devalidateL1 drops a typed L1 ref, releasing entry refs (and their
// release units) when it was the last one.
func (v *VMM) devalidateL1(c *hw.CPU, pt hw.PFN, s sink) {
	if v.FT.read(pt).typeCount == 1 { // the last typed ref
		table := hw.ViewTable(v.M.Mem, pt)
		for i := 0; i < hw.PTEntries; i++ {
			if pte := table.At(i); pte.Present() {
				v.cost(c, s, v.M.Costs.FrameRelease)
				v.unrefMapping(pte)
				v.rel.units--
			}
		}
	}
	v.FT.PutType(pt)
}

// refMapping takes the refs a present leaf entry holds on its target,
// loading the target's frame record once for the owner check and both
// refs.
func (v *VMM) refMapping(d *Domain, pte hw.PTE) error {
	f, err := v.refType(d, pte)
	if err != nil {
		return err
	}
	v.FT.getRef(f, pte.Frame())
	return nil
}

// refType is refMapping's checks and typed half: it checks that d may
// map pte's frame, takes the writable type ref a writable mapping
// holds, and returns the frame's record.
func (v *VMM) refType(d *Domain, pte hw.PTE) (*frame, error) {
	pfn := pte.Frame()
	if !v.M.Mem.Valid(pfn) {
		return nil, fmt.Errorf("xen: mapping of nonexistent frame %d", pfn)
	}
	f := &v.FT.frames[pfn]
	if owner := f.ownerID(); d != nil && owner != d.ID {
		// Foreign frames are only reachable via grants; the backend path
		// maps those through GrantMap, not page tables.
		return nil, fmt.Errorf("xen: dom%d mapping foreign frame %d (owner dom%d)",
			d.ID, pfn, owner)
	}
	if pte.Writable() {
		if err := v.FT.getType(f, pfn, FrameWritable); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// unrefMapping drops the refs a present leaf entry held.
func (v *VMM) unrefMapping(pte hw.PTE) {
	pfn := pte.Frame()
	f := &v.FT.frames[pfn]
	if pte.Writable() {
		v.FT.putType(f, pfn)
	}
	v.FT.putRef(f, pfn)
}

// validateL2 takes a typed L2 ref on root, validating referenced L1
// tables on the first ref; a validated directory is one release unit.
func (v *VMM) validateL2(c *hw.CPU, d *Domain, root hw.PFN, s sink) error {
	fresh, err := v.getTypeFresh(d, root, FrameL2, s)
	if err != nil {
		return err
	}
	if !fresh {
		return nil
	}
	v.cost(c, s, v.M.Costs.FrameValidate)
	dir := hw.ViewTable(v.M.Mem, root)
	for i := 0; i < hw.PTEntries; i++ {
		pde := dir.At(i)
		if !pde.Present() {
			continue
		}
		v.cost(c, s, v.M.Costs.PTValidatePin)
		if err := v.validateL1(c, d, pde.Frame(), s); err != nil {
			for j := 0; j < i; j++ {
				if p := dir.At(j); p.Present() {
					v.devalidateL1(c, p.Frame(), sinkNone)
					v.FT.PutRef(p.Frame())
				}
			}
			v.FT.PutType(root)
			return err
		}
		v.FT.GetRef(pde.Frame())
	}
	v.rel.units++
	return nil
}

// devalidateL2 drops a typed L2 ref, and its release unit with the last.
func (v *VMM) devalidateL2(c *hw.CPU, root hw.PFN, s sink) {
	if v.FT.read(root).typeCount == 1 { // the last typed ref
		v.cost(c, s, v.M.Costs.FrameRelease)
		v.rel.units--
		dir := hw.ViewTable(v.M.Mem, root)
		for i := 0; i < hw.PTEntries; i++ {
			if pde := dir.At(i); pde.Present() {
				v.devalidateL1(c, pde.Frame(), s)
				v.FT.PutRef(pde.Frame())
			}
		}
	}
	v.FT.PutType(root)
}

// pinTable validates and pins a page-directory root (internal; shared by
// the hypercall and the adopt/recompute paths).
func (v *VMM) pinTable(c *hw.CPU, d *Domain, root hw.PFN, s sink) error {
	if v.injectPinFails.Load() > 0 {
		v.injectPinFails.Add(-1)
		return fmt.Errorf("xen: injected transient failure pinning root %d", root)
	}
	if d.pinnedRoots[root] {
		return fmt.Errorf("xen: dom%d re-pinning root %d", d.ID, root)
	}
	if err := v.validateL2(c, d, root, s); err != nil {
		return err
	}
	v.FT.GetRef(root)
	v.FT.setPinned(root, true)
	v.traceInstant(c, "xen/pin", uint64(d.ID))
	d.pinnedRoots[root] = true
	v.rel.holders++
	return nil
}

// unpinTable reverses pinTable.
func (v *VMM) unpinTable(c *hw.CPU, d *Domain, root hw.PFN, s sink) error {
	if !d.pinnedRoots[root] {
		return fmt.Errorf("xen: dom%d unpinning unknown root %d", d.ID, root)
	}
	delete(d.pinnedRoots, root)
	v.rel.holders--
	v.FT.setPinned(root, false)
	v.traceInstant(c, "xen/unpin", uint64(d.ID))
	if d.baseHeld && d.baseptr == root {
		// The base pointer keeps root validated until CR3 moves off it;
		// the release is charged here, to the unpin that gave the tree
		// up, and dropBaseptr runs it later at no charge.
		v.cost(c, s, v.releaseCost(root))
	}
	v.devalidateL2(c, root, s)
	v.FT.PutRef(root)
	return nil
}

// releaseCost is what devalidateL2 charges to drop root's last typed
// ref: the directory, and the entries of each L1 only root types.
func (v *VMM) releaseCost(root hw.PFN) hw.Cycles {
	n := v.M.Costs.FrameRelease
	dir := hw.ViewTable(v.M.Mem, root)
	for i := 0; i < hw.PTEntries; i++ {
		pde := dir.At(i)
		if !pde.Present() || v.FT.read(pde.Frame()).typeCount != 1 {
			continue
		}
		table := hw.ViewTable(v.M.Mem, pde.Frame())
		for k := 0; k < hw.PTEntries; k++ {
			if table.At(k).Present() {
				n += v.M.Costs.FrameRelease
			}
		}
	}
	return n
}

// applyUpdates validates and applies a list of entry stores, one run
// of consecutive same-table stores at a time (applyRun), stopping at
// the first store refused. With dispatch, each store is a multicall op
// and pays MulticallPerOp first. It returns how many stores applied; on
// an error, the next one failed and changed nothing.
func (v *VMM) applyUpdates(c *hw.CPU, d *Domain, ups []MMUUpdate, dispatch bool, s sink) (int, error) {
	done := 0
	for done < len(ups) {
		n := 1
		for done+n < len(ups) && ups[done+n].Table == ups[done].Table {
			n++
		}
		k, err := v.applyRun(c, d, ups[done:done+n], dispatch, s)
		done += k
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// applyRun validates and applies a run of entry stores to one table
// (MMU lock held), in order, and returns how many applied; a single
// store is a run of one. Every store of the run names run[0].Table.
// Each store is charged as if it were alone: MulticallPerOp with
// dispatch, then MMUUpdateEntry once its table has checked, then its
// validation.
//
// The table is checked once, at the first store: valid memory, typed
// L1 or L2 with a non-zero count, and owned by d, its record read in
// place. No store of the run can change that record, so what the check
// found holds for the whole run. Only a type ref on the table could: a
// store would take one by mapping the table writable (from an L1) or
// using it as an L1 (from an L2), and either fails its own type check
// against the table's type; no validated entry holds one to drop. Every
// other writer of a record holds the MMU lock the run holds.
//
// The first store reads its old entry with ReadPTE. Only once it has
// validated does the run take the table's writable view (hw.WriteTable)
// and read and store every later entry through it, so a refused first
// store never promotes a copy-on-write table frame or runs its hook.
// DESIGN.md "Page-table walks" states why nothing else stores to the
// frame between two stores of a run.
//
// The stores applied are added to d's MMUUpdates once, as the run
// returns: nothing reads the count inside a VMM call.
//
// A store to an L1 table charges nothing past its MulticallPerOp and
// MMUUpdateEntry (storeRefs charges an L1 store nothing). So when a
// charged run names an L1 table and the run's full cost is quiet
// (hw.CPU.Quiet), the run owes its charges and pays what it owes once,
// as it returns: after a refused store that is the part the stores up
// to it charged, as before. An L2 run charges store by store: its
// stores validate L1 tables, whose charges are not known before the
// run, so its cost cannot be tested up front.
func (v *VMM) applyRun(c *hw.CPU, d *Domain, run []MMUUpdate, dispatch bool, s sink) (applied int, err error) {
	if d != nil {
		defer func() { d.Stats.MMUUpdates.Add(uint64(applied)) }()
	}
	table := run[0].Table
	perStore := v.M.Costs.MMUUpdateEntry
	if dispatch {
		perStore += v.M.Costs.MulticallPerOp
	}
	var owed hw.Cycles
	owe := s == sinkCharge && v.M.Mem.Valid(table) && v.FT.read(table).typ == FrameL1 &&
		c.Quiet(perStore*hw.Cycles(len(run)))
	if owe {
		defer func() { c.Charge(owed) }()
	}
	charge := func(n hw.Cycles) {
		if owe {
			owed += n
		} else {
			v.cost(c, s, n)
		}
	}
	var typ FrameType
	var w hw.TableWriter
	for i, u := range run {
		if dispatch {
			charge(v.M.Costs.MulticallPerOp)
		}
		if u.Index < 0 || u.Index >= hw.PTEntries {
			return i, fmt.Errorf("xen: mmu_update index %d outside table %d", u.Index, table)
		}
		if i == 0 {
			if !v.M.Mem.Valid(table) {
				return 0, fmt.Errorf("xen: mmu_update to frame %d beyond memory", table)
			}
			f := v.FT.read(table)
			if f.typeCount == 0 || (f.typ != FrameL1 && f.typ != FrameL2) {
				return 0, fmt.Errorf("xen: mmu_update to frame %d which is %s, not a page table",
					table, f.typ)
			}
			if d != nil && f.ownerID() != d.ID {
				return 0, fmt.Errorf("xen: dom%d updating foreign page table %d", d.ID, table)
			}
			typ = f.typ
		}
		charge(v.M.Costs.MMUUpdateEntry)
		var old hw.PTE
		if i == 0 {
			old = hw.ReadPTE(v.M.Mem, table, u.Index)
		} else {
			old = w.At(u.Index)
		}
		if err := v.storeRefs(c, d, typ, old, u.New, s); err != nil {
			return i, err
		}
		if i == 0 {
			w = hw.WriteTable(v.M.Mem, table)
		}
		w.Set(u.Index, u.New)
	}
	return len(run), nil
}

// storeRefs moves the accounting of one entry of a table of type typ
// from old to new: the new entry's refs are taken (and validated) before
// the old one's are dropped, and a refused new entry changes nothing.
func (v *VMM) storeRefs(c *hw.CPU, d *Domain, typ FrameType, old, new hw.PTE, s sink) error {
	if typ == FrameL2 {
		if new.Present() {
			if err := v.validateL1(c, d, new.Frame(), s); err != nil {
				return err
			}
			v.FT.GetRef(new.Frame())
		}
		if old.Present() {
			v.devalidateL1(c, old.Frame(), s)
			v.FT.PutRef(old.Frame())
		}
		return nil
	}
	if new.Present() && old.Present() && new.Frame() == old.Frame() {
		// Only the flags change: refMapping(new) and unrefMapping(old)
		// would take and drop the same existence ref, so move just the
		// writable type ref, after the same checks.
		f, err := v.refType(d, new)
		if err != nil {
			return err
		}
		if old.Writable() {
			v.FT.putType(f, old.Frame())
		}
		return nil
	}
	if new.Present() {
		if err := v.refMapping(d, new); err != nil {
			return err
		}
		v.rel.units++
	}
	if old.Present() {
		v.unrefMapping(old)
		v.rel.units--
	}
	return nil
}

// --- hypercalls ---

// HypMMUUpdate is the mmu_update hypercall: one world switch validates
// and applies a whole batch — the batching is what keeps paravirtual
// fork/exec within a small factor of native instead of paying a world
// switch per entry. Like Xen's do_mmu_update, which maps a request's
// table again only when it differs from the previous request's, it
// applies each run of consecutive same-table entries with one table
// check and one frame load (applyRun); every entry still pays its own
// MMUUpdateEntry and validation. It stops at the first entry refused.
func (v *VMM) HypMMUUpdate(c *hw.CPU, d *Domain, batch []MMUUpdate) error {
	defer v.exit(c, d, v.enter(c, d))
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	_, err := v.applyUpdates(c, d, batch, false, sinkCharge)
	return err
}

// HypPinTable is MMUEXT_PIN_L2_TABLE: validate a tree and pin its root.
func (v *VMM) HypPinTable(c *hw.CPU, d *Domain, root hw.PFN) error {
	defer v.exit(c, d, v.enter(c, d))
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	return v.pinTable(c, d, root, sinkCharge)
}

// HypUnpinTable is MMUEXT_UNPIN_TABLE.
func (v *VMM) HypUnpinTable(c *hw.CPU, d *Domain, root hw.PFN) error {
	defer v.exit(c, d, v.enter(c, d))
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	return v.unpinTable(c, d, root, sinkCharge)
}

// newBaseptrLocked installs root as the guest's page-directory base
// (MMU lock held): auto-pin on first use as Xen does, move the base
// pointer's refs to root, then the privileged CR3 load. Shared by
// HypNewBaseptr, HypContextSwitch and the multicall dispatcher.
func (v *VMM) newBaseptrLocked(c *hw.CPU, d *Domain, root hw.PFN) error {
	if !d.pinnedRoots[root] {
		if err := v.pinTable(c, d, root, sinkCharge); err != nil {
			return err
		}
	}
	if err := v.setBaseptr(c, d, root, sinkCharge); err != nil {
		return err
	}
	c.WriteCR3(root)
	d.VCPU0().SetCR3(root)
	return nil
}

// setBaseptr makes root the directory the base pointer holds refs on:
// a typed L2 ref (validating root if it is the first) and an existence
// ref, as Xen's MMUEXT_NEW_BASEPTR holds them on guest_table, then drops
// the refs on the previous one. While installed, a directory stays
// typed L2 even if the guest unpins it, so no tree pinned afterwards can
// map the live directory writable. On a pinned root it charges nothing.
func (v *VMM) setBaseptr(c *hw.CPU, d *Domain, root hw.PFN, s sink) error {
	if err := v.validateL2(c, d, root, s); err != nil {
		return err
	}
	v.FT.GetRef(root)
	v.dropBaseptr(c, d)
	d.baseptr, d.baseHeld = root, true
	v.rel.holders++
	return nil
}

// dropBaseptr releases the base pointer's refs, if it holds any, at no
// charge: a pinned directory only loses a ref, and an unpinned one's
// release was charged to its unpin.
func (v *VMM) dropBaseptr(c *hw.CPU, d *Domain) {
	if !d.baseHeld {
		return
	}
	d.baseHeld = false
	v.rel.holders--
	v.devalidateL2(c, d.baseptr, sinkNone)
	v.FT.PutRef(d.baseptr)
}

// cr3Root returns the directory in c's CR3 when it is a valid frame d
// owns: the base pointer an attach adopts. A CPU still on a directory
// no domain owns (as before any guest ran) has none.
func (v *VMM) cr3Root(c *hw.CPU, d *Domain) (hw.PFN, bool) {
	root := c.ReadCR3()
	return root, v.M.Mem.Valid(root) && v.FT.frames[root].ownerID() == d.ID
}

// HypNewBaseptr is MMUEXT_NEW_BASEPTR: install a pinned root as the
// guest's page-directory base. The VMM performs the privileged CR3 load.
func (v *VMM) HypNewBaseptr(c *hw.CPU, d *Domain, root hw.PFN) error {
	defer v.exit(c, d, v.enter(c, d))
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	return v.newBaseptrLocked(c, d, root)
}

// HypContextSwitch is the paravirtual context-switch multicall:
// stack_switch plus MMUEXT_NEW_BASEPTR in one world switch, the way
// Xen-Linux batches its __switch_to path.
func (v *VMM) HypContextSwitch(c *hw.CPU, d *Domain, root hw.PFN) error {
	defer v.exit(c, d, v.enter(c, d))
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	v.stackSwitch(c)
	return v.newBaseptrLocked(c, d, root)
}

// stackSwitch is stack_switch plus the vcpu state swap of a paravirtual
// context switch (HypContextSwitch, MCStackSwitch).
func (v *VMM) stackSwitch(c *hw.CPU) {
	c.Charge(v.M.Costs.MemWrite * 2)    // stack switch bookkeeping
	c.Charge(v.M.Costs.VCPUStateSwitch) // segment/LDT/FPU state swap
}

// HypTLBFlush is MMUEXT_TLB_FLUSH_LOCAL.
func (v *VMM) HypTLBFlush(c *hw.CPU, d *Domain) {
	defer v.exit(c, d, v.enter(c, d))
	v.flushTLB(c)
}

// flushTLB is the local TLB flush's body (HypTLBFlush, and the one
// flush a multicall's MCTLBFlush requests coalesce to).
func (v *VMM) flushTLB(c *hw.CPU) {
	c.TLB.Flush()
	c.Charge(v.M.Costs.TLBFlush)
}

// HypInvlpg is MMUEXT_INVLPG_LOCAL.
func (v *VMM) HypInvlpg(c *hw.CPU, d *Domain, va hw.VirtAddr) {
	defer v.exit(c, d, v.enter(c, d))
	v.invlpg(c, va)
}

// invlpg is the single-page invalidation's body (HypInvlpg, MCInvlpg).
func (v *VMM) invlpg(c *hw.CPU, va hw.VirtAddr) {
	c.TLB.Invalidate(hw.VPNOf(va))
	c.Charge(v.M.Costs.PrivInsn)
}

// --- active tracking (the §5.1.2 "first approach" ablation) ---

// MirrorPTEWrite keeps the frame table in sync with a native-mode direct
// PTE store. The native OS calls it on every page-table write when the
// active-tracking policy is selected; the work costs a few cycles per
// store (the 2–3 % native overhead the paper measured) but makes the
// switch-time recompute unnecessary.
func (v *VMM) MirrorPTEWrite(c *hw.CPU, d *Domain, u MMUUpdate) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	_, err := v.applyRun(c, d, []MMUUpdate{u}, false, sinkNone)
	return err
}

// MirrorPinRoot registers a new root under active tracking.
func (v *VMM) MirrorPinRoot(c *hw.CPU, d *Domain, root hw.PFN) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	return v.pinTable(c, d, root, sinkNone)
}

// MirrorUnpinRoot unregisters a root under active tracking.
func (v *VMM) MirrorUnpinRoot(c *hw.CPU, d *Domain, root hw.PFN) error {
	c.Charge(v.M.Costs.MirrorUpdate)
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	return v.unpinTable(c, d, root, sinkNone)
}

// --- Mercury attach/detach support ---

// RecomputeFrameInfo rebuilds the (stale) frame table for an adopted
// domain by scanning and pinning every supplied root. This is the
// paper's preferred "re-compute and synchronize during a mode switch"
// strategy and accounts for most of the 0.22 ms native->virtual switch
// time (§5.1.2, §7.4).
//
// When the last detach kept its table (attach.go) and nothing the walk
// reads has moved since but L1 entries, the kept records are restored,
// the changed entries replayed, and the walk's cycles charged without
// the walk; otherwise the walk runs. The table, pins, tally, error and
// clock are the walk's either way.
//
// workers is how many CPUs may share the walk: at attach every other
// CPU is parked at the §5.4 rendezvous. With two or more workers and
// roots, the walk is charged as if its roots were dealt round-robin to
// that many CPUs and walked in parallel (recompute_parallel.go); the
// frame table it builds is the same either way.
//
// The operation is transactional: if any root fails validation (the OS
// was in an inconsistent state, e.g. a page-table page reachable
// writable), every root pinned so far is unpinned again and the frame
// table is left exactly as before — the substrate for Mercury's
// failure-resistant mode switch.
func (v *VMM) RecomputeFrameInfo(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	ruled := min(workers, len(roots)) < 2 && v.restoreKept(c, d, roots)
	v.keep.d = nil
	if ruled {
		return nil
	}
	return v.recomputeWalk(c, d, roots, workers)
}

// recomputeWalk is RecomputeFrameInfo's walk (MMU lock held).
func (v *VMM) recomputeWalk(c *hw.CPU, d *Domain, roots []hw.PFN, workers int) error {
	shards := min(workers, len(roots))
	s := sinkCharge
	if shards >= 2 {
		s = sinkTally
		v.shards.begin(shards, v.FT.NumFrames())
	}
	var err error
	for i, r := range roots {
		if s == sinkTally {
			v.shards.cur = i % shards
		}
		if err = v.pinTable(c, d, r, s); err != nil {
			v.unpinRoots(c, d, roots[:i]) // every root before r was pinned
			err = fmt.Errorf("xen: recompute: %w", err)
			break
		}
	}
	if s == sinkTally {
		v.chargeShards(c, len(roots), err == nil)
	}
	// The directory in CR3 is the base pointer again: on a live root,
	// one more ref and no charge.
	if root, ok := v.cr3Root(c, d); err == nil && ok {
		if err = v.setBaseptr(c, d, root, sinkCharge); err != nil {
			v.unpinRoots(c, d, roots)
			err = fmt.Errorf("xen: recompute: base pointer: %w", err)
		}
	}
	return err
}

// unpinRoots unpins roots, all pinned by a recompute that is rolling
// back, at no charge.
func (v *VMM) unpinRoots(c *hw.CPU, d *Domain, roots []hw.PFN) {
	for _, p := range roots {
		if err := v.unpinTable(c, d, p, sinkNone); err != nil {
			panic(fmt.Sprintf("xen: recompute rollback: %v", err))
		}
	}
}

// EmulatePTEWrite is the trap-and-emulation path for a page-table store
// (§5.3: "non-performance-critical sensitive code is not included in a
// VO and relies instead on trap-and-emulation to commit the effect"):
// the deprivileged kernel's direct store to a read-only page-table page
// faults into the VMM, which decodes and validates it — dearer than an
// explicit hypercall, but requiring no kernel modification at the call
// site.
func (v *VMM) EmulatePTEWrite(c *hw.CPU, d *Domain, u MMUUpdate) error {
	// The faulting store: #PF entry, instruction decode, emulation.
	c.Charge(v.M.Costs.FaultEntry + v.M.Costs.WorldSwitch + v.M.Costs.FaultBounce)
	if d != nil {
		d.Stats.FaultBounces.Add(1)
	}
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	prev := c.SetMode(hw.PL0)
	_, err := v.applyRun(c, d, []MMUUpdate{u}, false, sinkCharge)
	c.SetMode(prev)
	c.Charge(v.M.Costs.FaultExit)
	return err
}
