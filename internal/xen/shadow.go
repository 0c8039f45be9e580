package xen

import (
	"fmt"

	"repro/internal/hw"
)

// Shadow paging — the alternative physical-address mode of §3.2.2. In
// shadow mode the guest's page tables are never installed in hardware;
// the VMM maintains translated copies ("shadows") out of its own
// reserved memory and points CR3 at those. Every guest entry is
// translated through the domain's pseudo-physical-to-machine mapping
// when the shadow is built or updated.
//
// The paper's Mercury uses direct mode precisely because shadow mode
// makes self-virtualization expensive: attaching the VMM requires
// building (translating) shadows for every live page table, where direct
// mode only validates in place. This implementation exists to measure
// that difference — see bench.PagingAblation.

// P2M translates a domain's pseudo-physical frame to a machine frame.
// Adopted domains are identity-mapped (their "pseudo-physical" space is
// the machine space); the translation work is still charged per entry,
// which is what the mode costs.
type P2M func(hw.PFN) hw.PFN

// IdentityP2M is the adopted-domain translation.
func IdentityP2M(p hw.PFN) hw.PFN { return p }

// shadowState tracks one domain's shadow trees.
type shadowState struct {
	p2m P2M
	// roots maps guest page-directory roots to shadow roots.
	roots map[hw.PFN]hw.PFN
	// tables maps guest L1 frames to shadow L1 frames.
	tables map[hw.PFN]hw.PFN
}

// shadowOf returns (creating) the domain's shadow state.
func (v *VMM) shadowOf(d *Domain) *shadowState {
	if v.shadows == nil {
		v.shadows = make(map[DomID]*shadowState)
	}
	st, ok := v.shadows[d.ID]
	if !ok {
		st = &shadowState{p2m: IdentityP2M,
			roots:  make(map[hw.PFN]hw.PFN),
			tables: make(map[hw.PFN]hw.PFN)}
		v.shadows[d.ID] = st
	}
	return st
}

// allocShadowFrame takes a frame from the VMM's own reservation.
func (v *VMM) allocShadowFrame() (hw.PFN, error) {
	pfn := v.Reserved.Alloc()
	if pfn == hw.NoPFN {
		return 0, fmt.Errorf("xen: out of shadow memory")
	}
	v.M.Mem.ZeroFrame(pfn)
	return pfn, nil
}

// buildShadowL1 translates one guest leaf table into a fresh shadow.
func (v *VMM) buildShadowL1(c *hw.CPU, st *shadowState, gpt hw.PFN) (hw.PFN, error) {
	if spt, ok := st.tables[gpt]; ok {
		return spt, nil
	}
	spt, err := v.allocShadowFrame()
	if err != nil {
		return 0, err
	}
	gtable := hw.ViewTable(v.M.Mem, gpt)
	for i := 0; i < hw.PTEntries; i++ {
		ge := gtable.At(i)
		if !ge.Present() {
			continue
		}
		c.Charge(v.M.Costs.ShadowPerEntry)
		hw.WritePTE(v.M.Mem, spt, i, hw.MakePTE(st.p2m(ge.Frame()), ge.Flags()))
	}
	st.tables[gpt] = spt
	return spt, nil
}

// BuildShadowTree constructs (or returns) the shadow for a guest root,
// translating every present entry. This is the per-switch cost direct
// mode avoids.
func (v *VMM) BuildShadowTree(c *hw.CPU, d *Domain, groot hw.PFN) (hw.PFN, error) {
	st := v.shadowOf(d)
	if sroot, ok := st.roots[groot]; ok {
		return sroot, nil
	}
	sroot, err := v.allocShadowFrame()
	if err != nil {
		return 0, err
	}
	c.Charge(v.M.Costs.ShadowPerTable)
	gdir := hw.ViewTable(v.M.Mem, groot)
	for pdi := 0; pdi < hw.PTEntries; pdi++ {
		pde := gdir.At(pdi)
		if !pde.Present() {
			continue
		}
		c.Charge(v.M.Costs.ShadowPerTable)
		spt, err := v.buildShadowL1(c, st, pde.Frame())
		if err != nil {
			return 0, err
		}
		hw.WritePTE(v.M.Mem, sroot, pdi, hw.MakePTE(spt, pde.Flags()))
	}
	st.roots[groot] = sroot
	return sroot, nil
}

// DropShadowTree releases a guest root's shadow (on unpin or detach).
// Shared L1 shadows are dropped when their last referencing root goes.
func (v *VMM) DropShadowTree(c *hw.CPU, d *Domain, groot hw.PFN) {
	st := v.shadowOf(d)
	sroot, ok := st.roots[groot]
	if !ok {
		return
	}
	delete(st.roots, groot)
	c.Charge(v.M.Costs.FrameRelease)
	// Free L1 shadows referenced only by this root.
	sdir := hw.ViewTable(v.M.Mem, sroot)
	for pdi := 0; pdi < hw.PTEntries; pdi++ {
		spde := sdir.At(pdi)
		if !spde.Present() {
			continue
		}
		spt := spde.Frame()
		// Still referenced by another shadow root?
		shared := false
		for _, otherRoot := range st.roots {
			if o := hw.ReadPTE(v.M.Mem, otherRoot, pdi); o.Present() && o.Frame() == spt {
				shared = true
				break
			}
		}
		if !shared {
			// Remove the guest->shadow mapping for this table.
			for g, s := range st.tables {
				if s == spt {
					delete(st.tables, g)
				}
			}
			v.Reserved.Free(spt)
		}
	}
	v.Reserved.Free(sroot)
}

// syncShadowEntry write-through-updates the shadow after a validated
// guest entry store. Must be called with the guest entry already
// written.
func (v *VMM) syncShadowEntry(c *hw.CPU, d *Domain, u MMUUpdate) error {
	st := v.shadowOf(d)
	if spt, ok := st.tables[u.Table]; ok {
		// Leaf update.
		c.Charge(v.M.Costs.ShadowPerEntry)
		if u.New.Present() {
			hw.WritePTE(v.M.Mem, spt, u.Index, hw.MakePTE(st.p2m(u.New.Frame()), u.New.Flags()))
		} else {
			hw.WritePTE(v.M.Mem, spt, u.Index, 0)
		}
		return nil
	}
	if sroot, ok := st.roots[u.Table]; ok {
		// Page-directory update: build or drop the shadow of the target
		// leaf table.
		c.Charge(v.M.Costs.ShadowPerEntry)
		if u.New.Present() {
			spt, err := v.buildShadowL1(c, st, u.New.Frame())
			if err != nil {
				return err
			}
			hw.WritePTE(v.M.Mem, sroot, u.Index, hw.MakePTE(spt, u.New.Flags()))
		} else {
			hw.WritePTE(v.M.Mem, sroot, u.Index, 0)
		}
		return nil
	}
	// Update to a table with no shadow yet: nothing to sync (it will be
	// translated when its tree is next built).
	return nil
}

// HWRoot returns the page-directory base to install in hardware for a
// guest root: the shadow in shadow mode, the guest's own in direct mode.
func (v *VMM) HWRoot(c *hw.CPU, d *Domain, groot hw.PFN) (hw.PFN, error) {
	if !v.ShadowMode {
		return groot, nil
	}
	// Fast path: shadow already built (by the pin under the MMU lock).
	st := v.shadowOf(d)
	if sroot, ok := st.roots[groot]; ok {
		return sroot, nil
	}
	return v.BuildShadowTree(c, d, groot)
}

// ShadowFramesInUse reports how many reserved frames shadows occupy.
func (v *VMM) ShadowFramesInUse() int { return v.Reserved.InUse() }

// VerifyShadow checks that a guest root's shadow agrees with the guest
// tree under the domain's p2m — the shadow-coherence invariant.
func (v *VMM) VerifyShadow(d *Domain, groot hw.PFN) error {
	st := v.shadowOf(d)
	sroot, ok := st.roots[groot]
	if !ok {
		return fmt.Errorf("xen: no shadow for root %d", groot)
	}
	gdir, sdir := hw.ViewTable(v.M.Mem, groot), hw.ViewTable(v.M.Mem, sroot)
	for pdi := 0; pdi < hw.PTEntries; pdi++ {
		gpde, spde := gdir.At(pdi), sdir.At(pdi)
		if gpde.Present() != spde.Present() {
			return fmt.Errorf("xen: shadow pde %d presence mismatch", pdi)
		}
		if !gpde.Present() {
			continue
		}
		gtable := hw.ViewTable(v.M.Mem, gpde.Frame())
		stable := hw.ViewTable(v.M.Mem, spde.Frame())
		for pti := 0; pti < hw.PTEntries; pti++ {
			ge, se := gtable.At(pti), stable.At(pti)
			if ge.Present() != se.Present() {
				return fmt.Errorf("xen: shadow pte (%d,%d) presence mismatch", pdi, pti)
			}
			if !ge.Present() {
				continue
			}
			if se.Frame() != st.p2m(ge.Frame()) || se.Flags() != ge.Flags() {
				return fmt.Errorf("xen: shadow pte (%d,%d) diverged", pdi, pti)
			}
		}
	}
	return nil
}
