package migrate

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/xen"
)

// DomainImage is a serializable snapshot of one domain.
type DomainImage struct {
	Name   string
	Lo, Hi hw.PFN // frame partition [Lo, Hi)
	// Pages holds the contents of every touched frame, keyed by PFN.
	Pages map[hw.PFN][]byte
	// VCPU state.
	CR3 hw.PFN
	VIF bool
	// PinnedRoots are the page-directory roots the VMM had pinned.
	PinnedRoots []hw.PFN
	Privileged  bool
}

// pageRec is one frame of the wire image.
type pageRec struct {
	PFN  hw.PFN
	Data []byte
}

// imageWire is the deterministic serialization of a DomainImage: pages
// in sorted-PFN order and roots sorted ascending, instead of a raw gob
// map whose iteration order varies run to run. Identical state must
// encode to identical bytes — the prerequisite for content-addressed
// snapshot identity (internal/fork).
type imageWire struct {
	Name        string
	Lo, Hi      hw.PFN
	CR3         hw.PFN
	VIF         bool
	PinnedRoots []hw.PFN
	Privileged  bool
	Pages       []pageRec
}

// Bytes returns the canonical encoding (what would travel to stable
// storage or the migration socket). Two images of bit-identical state
// produce bit-identical bytes.
func (img *DomainImage) Bytes() ([]byte, error) {
	w := imageWire{
		Name: img.Name, Lo: img.Lo, Hi: img.Hi,
		CR3: img.CR3, VIF: img.VIF, Privileged: img.Privileged,
	}
	w.PinnedRoots = append([]hw.PFN(nil), img.PinnedRoots...)
	sort.Slice(w.PinnedRoots, func(i, j int) bool { return w.PinnedRoots[i] < w.PinnedRoots[j] })
	w.Pages = make([]pageRec, 0, len(img.Pages))
	for pfn, data := range img.Pages {
		w.Pages = append(w.Pages, pageRec{PFN: pfn, Data: data})
	}
	sort.Slice(w.Pages, func(i, j int) bool { return w.Pages[i].PFN < w.Pages[j].PFN })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("migrate: encoding image: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeImage parses an encoded image. An image crosses a trust
// boundary (stable storage, the migration socket), and Restore copies
// each page to its PFN relative to the partition, so DecodeImage
// rejects a partition with Lo > Hi, a page outside [Lo, Hi), and a
// page whose data is not exactly one frame.
func DecodeImage(b []byte) (*DomainImage, error) {
	var w imageWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, fmt.Errorf("migrate: decoding image: %w", err)
	}
	if w.Lo > w.Hi {
		return nil, fmt.Errorf("migrate: image partition [%d, %d) is inverted", w.Lo, w.Hi)
	}
	for _, p := range w.Pages {
		if p.PFN < w.Lo || p.PFN >= w.Hi {
			return nil, fmt.Errorf("migrate: image page %d outside partition [%d, %d)",
				p.PFN, w.Lo, w.Hi)
		}
		if len(p.Data) != hw.PageSize {
			return nil, fmt.Errorf("migrate: image page %d holds %d bytes, want %d",
				p.PFN, len(p.Data), hw.PageSize)
		}
	}
	img := &DomainImage{
		Name: w.Name, Lo: w.Lo, Hi: w.Hi,
		CR3: w.CR3, VIF: w.VIF, Privileged: w.Privileged,
		PinnedRoots: w.PinnedRoots,
		Pages:       make(map[hw.PFN][]byte, len(w.Pages)),
	}
	for _, p := range w.Pages {
		img.Pages[p.PFN] = p.Data
	}
	return img, nil
}

// MemBytes returns the snapshot payload size.
func (img *DomainImage) MemBytes() int { return len(img.Pages) * hw.PageSize }

// Checkpoint pauses d, snapshots its memory and vcpu state, and resumes
// it (§6.1: "the pre-cached VMM is activated and makes a snapshot of the
// whole system"). The calling CPU is charged the copy costs.
func Checkpoint(c *hw.CPU, v *xen.VMM, caller, d *xen.Domain) (*DomainImage, error) {
	if !v.Active {
		return nil, fmt.Errorf("migrate: checkpoint requires an active VMM")
	}
	if err := v.HypDomctlPause(c, caller, d.ID); err != nil {
		return nil, err
	}
	img := snapshot(c, v, d)
	if err := v.HypDomctlUnpause(c, caller, d.ID); err != nil {
		// The snapshot is complete and consistent — discarding it would
		// throw away the very state a failing system needs. Return it
		// alongside the resume failure so the caller can restore.
		return img, fmt.Errorf("migrate: checkpoint complete but resume failed: %w", err)
	}
	return img, nil
}

// snapshot copies the domain's touched frames (internal; also used by
// the stop-and-copy phase of live migration).
func snapshot(c *hw.CPU, v *xen.VMM, d *xen.Domain) *DomainImage {
	lo, hi := d.Frames.Range()
	img := &DomainImage{
		Name:        d.Name,
		Lo:          lo,
		Hi:          hi,
		Pages:       make(map[hw.PFN][]byte),
		CR3:         d.VCPU0().CR3(),
		VIF:         d.VCPU0().VIF(),
		PinnedRoots: d.PinnedRoots(),
		Privileged:  d.Privileged,
	}
	zero := make([]byte, hw.PageSize)
	for pfn := lo; pfn < hi; pfn++ {
		data := v.M.Mem.FrameBytesRO(pfn)
		if bytes.Equal(data, zero) {
			continue // untouched frames are implicit
		}
		cp := make([]byte, hw.PageSize)
		copy(cp, data)
		img.Pages[pfn] = cp
		c.Charge(v.M.Costs.PageCopy)
	}
	return img
}

// Restore writes an image into the target domain's partition on machine
// dst. The target partition must be at least as large as the source's.
// When the partitions start at different frame numbers, every page-table
// entry and the CR3 are relocated by the frame delta — the
// canonicalization step of real migration. The restored page-table
// roots are validated and re-pinned under dst's frame accounting before
// the domain resumes; if pinning fails the laid-down image is scrubbed
// again and the target left paused, so a bad image never runs.
func Restore(c *hw.CPU, dst *xen.VMM, caller, into *xen.Domain, img *DomainImage) error {
	if !dst.Active {
		return fmt.Errorf("migrate: restore requires an active VMM")
	}
	lo, hi := into.Frames.Range()
	if hi-lo < img.Hi-img.Lo {
		return fmt.Errorf("migrate: target partition %d frames < source %d",
			hi-lo, img.Hi-img.Lo)
	}
	if err := dst.HypDomctlPause(c, caller, into.ID); err != nil {
		return err
	}
	txn := BeginTxn("restore " + img.Name)
	txn.Journal("scrub-target", func() error {
		for pfn := lo; pfn < hi; pfn++ {
			dst.M.Mem.ZeroFrame(pfn)
		}
		return nil
	})
	delta := int64(lo) - int64(img.Lo)
	// Clear the target range, then lay the pages down.
	for pfn := lo; pfn < hi; pfn++ {
		dst.M.Mem.ZeroFrame(pfn)
	}
	for pfn, data := range img.Pages {
		tgt := hw.PFN(int64(pfn) + delta)
		copy(dst.M.Mem.FrameBytes(tgt), data)
		c.Charge(dst.M.Costs.PageCopy)
	}
	if delta != 0 {
		RelocateTables(c, dst.M.Mem, img.PinnedRoots, delta)
	}
	// Re-register the restored roots with the VMM: pinning validates
	// the (relocated) trees and takes the type refs the destination
	// needs — a restored domain must not run on unvalidated tables.
	if err := RepinRoots(c, txn, dst, into, img.PinnedRoots, delta); err != nil {
		if rerr := txn.Rollback(); rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return fmt.Errorf("migrate: restore aborted, target scrubbed and left paused: %w", err)
	}
	into.VCPU0().SetCR3(hw.PFN(int64(img.CR3) + delta))
	into.VCPU0().SetVIF(img.VIF)
	txn.Commit()
	return dst.HypDomctlUnpause(c, caller, into.ID)
}

// RelocateTables rewrites frame numbers inside every restored page-table
// tree (rooted at the relocated positions of roots) by delta — the
// canonicalization step shared by Restore, Live, and fork.Clone.
func RelocateTables(c *hw.CPU, mem *hw.PhysMem, roots []hw.PFN, delta int64) {
	for _, root := range roots {
		newRoot := hw.PFN(int64(root) + delta)
		dir := hw.ViewTable(mem, newRoot)
		for pdi := 0; pdi < hw.PTEntries; pdi++ {
			pde := dir.At(pdi)
			if !pde.Present() {
				continue
			}
			newPT := hw.PFN(int64(pde.Frame()) + delta)
			hw.WritePTE(mem, newRoot, pdi, hw.MakePTE(newPT, pde.Flags()))
			c.Charge(40) // entry rewrite work
			table := hw.ViewTable(mem, newPT)
			for pti := 0; pti < hw.PTEntries; pti++ {
				pte := table.At(pti)
				if !pte.Present() {
					continue
				}
				hw.WritePTE(mem, newPT, pti,
					hw.MakePTE(hw.PFN(int64(pte.Frame())+delta), pte.Flags()))
			}
		}
	}
}
