package fork

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// CloneState tracks one forked domain: its frames are copy-on-write
// mapped onto the base's pages until writes promote them to private
// copies, and it counts the promotions. The clone owns no store
// references: it holds its base once, from Clone until its teardown,
// which keeps every frame it maps stored.
type CloneState struct {
	Base *CloneBase
	V    *xen.VMM
	D    *xen.Domain

	// Lo is the clone's partition base; Delta its displacement from the
	// base image's partition.
	Lo    hw.PFN
	Delta int64

	mu        sync.Mutex
	promoted  int
	destroyed bool
}

// CloneBase pairs the template image with the store it lives in — what
// Clone needs to spawn domains from it.
type CloneBase struct {
	Store *Store
	Img   *BaseImage
}

// NewTemplate boots a host sized for a template of pages live pages and
// clones forks of it, builds the template domain there (pattern words in
// its data pages, then a two-frame pinned page-table tree that every
// clone pays to relocate), and warms its checkpoint into a fresh store
// as the base image clones fork from.
func NewTemplate(pages, clones int) (*xen.Host, *CloneBase, error) {
	span := hw.PFN(pages) + 16 // data pages plus table and slack frames
	// VMM reservation + dom0 + the template and every clone.
	frames := uint64(xen.ReservedFrames) + 1024 + uint64(span)*uint64(clones+1) + 512
	h, err := xen.BootHost(hw.Config{Name: "fork-template", MemBytes: frames * hw.PageSize, NumCPUs: 1}, 1024)
	if err != nil {
		return nil, nil, err
	}
	origin, err := h.V.CreateDomain("template", span, false)
	if err != nil {
		return nil, nil, err
	}
	lo, _ := origin.Frames.Range()
	for i := 0; i < pages; i++ {
		h.M.Mem.WriteWord((lo + hw.PFN(i)).Addr(), 0xBE000000|uint32(i))
	}
	root, ptf := lo+hw.PFN(pages), lo+hw.PFN(pages)+1
	hw.WritePTE(h.M.Mem, root, 3, hw.MakePTE(ptf, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(h.M.Mem, ptf, 7, hw.MakePTE(lo, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	origin.VCPU0().SetCR3(root)

	img, err := migrate.Checkpoint(h.C, h.V, h.Dom0, origin)
	if err != nil {
		return nil, nil, err
	}
	img.PinnedRoots = []hw.PFN{root}
	store := NewStore()
	base, err := NewBase(store, img)
	if err != nil {
		return nil, nil, err
	}
	return h, &CloneBase{Store: store, Img: base}, nil
}

// SharedCount returns the number of frames still CoW-mapped.
func (cs *CloneState) SharedCount() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.destroyed {
		return 0
	}
	return len(cs.Base.Img.Refs) - cs.promoted
}

// PromotedCount returns the number of frames privatized by writes.
func (cs *CloneState) PromotedCount() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.promoted
}

// LiveRefs reports the store references the clone owns: none, since
// it holds its base instead.
func (cs *CloneState) LiveRefs() int { return 0 }

// live reports whether the clone is not yet torn down, and so holds its
// base.
func (cs *CloneState) live() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return !cs.destroyed
}

// onPromote is the hw promotion hook: a frame went private.
func (cs *CloneState) onPromote(hw.PFN) {
	cs.mu.Lock()
	if !cs.destroyed {
		cs.promoted++
	}
	cs.mu.Unlock()
}

// abort releases everything the clone holds: the domain, whose
// partition is then scrubbed so that its pages serve later clones, and
// its hold on the base. Idempotent.
func (cs *CloneState) abort() error {
	cs.mu.Lock()
	if cs.destroyed {
		cs.mu.Unlock()
		return nil
	}
	cs.destroyed = true
	cs.mu.Unlock()
	firstErr := cs.V.DestroyDomain(cs.D.ID)
	// Nothing reaches the partition now: the domain is gone, its pins
	// and grants with it, and a partition is never handed out again.
	cs.V.M.Mem.Scrub(cs.Lo, cs.Lo+cs.Base.Img.Span())
	if err := cs.Base.Img.letGo(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Clone spawns a new domain from a warmed base image at the cost of the
// dirtied frames, not the image size: the clone takes one hold on the
// base, every non-zero frame is mapped copy-on-write onto the shared
// snapshot cache (one batch maps the base's pages slice under one
// mapping header, and each frame costs one CoWMapPerFrame charge — no
// page copies), the page-table tree is relocated to the clone's
// partition (promoting exactly the table frames when the displacement
// is non-zero), the roots are re-pinned, and the vcpu state is
// installed. All side effects ride a migrate.Txn: on any failure the
// pins are undone, the mappings unmapped, the domain destroyed, and
// the hold let go.
func Clone(c *hw.CPU, v *xen.VMM, caller *xen.Domain, base *CloneBase, name string) (*CloneState, error) {
	if !v.Active {
		return nil, fmt.Errorf("fork: clone requires an active VMM")
	}
	img := base.Img
	if err := img.hold(true); err != nil {
		return nil, err
	}
	d, err := v.CreateDomain(name, img.Span(), img.Privileged)
	if err != nil {
		if rerr := img.letGo(); rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return nil, fmt.Errorf("fork: creating clone domain: %w", err)
	}
	lo, _ := d.Frames.Range()
	cs := &CloneState{
		Base: base, V: v, D: d,
		Lo: lo, Delta: int64(lo) - int64(img.Lo),
	}
	txn := migrate.BeginTxn("fork " + name)
	txn.Journal("clone-teardown", cs.abort)
	fail := func(err error) (*CloneState, error) {
		if rerr := txn.Rollback(); rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return nil, err
	}
	if err := v.HypDomctlPause(c, caller, d.ID); err != nil {
		return fail(fmt.Errorf("fork: pausing fresh clone: %w", err))
	}
	// Map every base frame copy-on-write: the clone reads the shared
	// cache page until its first write promotes the frame.
	mem := v.M.Mem
	if err := mem.MapSharedRange(lo, img.pages, cs.onPromote); err != nil {
		return fail(fmt.Errorf("fork: mapping the base: %w", err))
	}
	for range img.Refs {
		c.Charge(v.M.Costs.CoWMapPerFrame)
	}
	// Relocate the page-table tree to the clone's partition. The PTE
	// writes promote exactly the table frames — the only copies a fork
	// pays for when nothing else is dirtied.
	if cs.Delta != 0 {
		migrate.RelocateTables(c, mem, img.PinnedRoots, cs.Delta)
	}
	if err := migrate.RepinRoots(c, txn, v, d, img.PinnedRoots, cs.Delta); err != nil {
		return fail(fmt.Errorf("fork: clone aborted: %w", err))
	}
	d.VCPU0().SetCR3(hw.PFN(int64(img.CR3) + cs.Delta))
	d.VCPU0().SetVIF(img.VIF)
	if err := v.HypDomctlUnpause(c, caller, d.ID); err != nil {
		return fail(fmt.Errorf("fork: resuming clone: %w", err))
	}
	txn.Commit()
	return cs, nil
}

// CheckpointDelta pauses a forked domain and captures only its
// divergence from the base: frames still CoW-mapped are skipped
// outright (they cannot have changed); every other frame is charged
// one hash and stored only if its bytes differ from the base's frame
// at the same offset, or from the zero page where the base has none (a
// frame rewritten back to base content, or still zero, costs nothing).
// sha256 runs only in Put, for content the store lacks. The result is
// an Overlay owning one store reference per diverged frame and one
// hold on the base.
func CheckpointDelta(c *hw.CPU, v *xen.VMM, caller *xen.Domain, cs *CloneState) (*Overlay, error) {
	if cs.destroyed {
		return nil, fmt.Errorf("fork: checkpoint of destroyed clone")
	}
	if err := v.HypDomctlPause(c, caller, cs.D.ID); err != nil {
		return nil, err
	}
	img := cs.Base.Img
	_ = img.hold(false) // never refused: the clone holds the base
	o := &Overlay{
		store: cs.Base.Store,
		Base:  img,
		Name:  cs.D.Name,
		Lo:    cs.Lo, Hi: cs.Lo + img.Span(),
		CR3: cs.D.VCPU0().CR3(), VIF: cs.D.VCPU0().VIF(),
		PinnedRoots: cs.D.PinnedRoots(),
	}
	mem := v.M.Mem
	// Mostly the frames that hold a private page diverge; a frame with
	// none reads as zero. A hint only: append grows past it.
	o.Dirty = make([]FrameRef, 0, mem.PrivateFrames(o.Lo, o.Hi))
	hashCost := v.M.Costs.PageCopy / 4
	for pfn := o.Lo; pfn < o.Hi; pfn++ {
		if mem.SharedAt(pfn) {
			continue // still backed by the cache: unchanged by construction
		}
		data := mem.FrameBytesRO(pfn)
		c.Charge(hashCost)
		off := uint32(pfn - o.Lo)
		if img.sameAsBase(off, data) {
			continue // written back to base content, or (still) zero
		}
		sh, err := cs.Base.Store.Put(data)
		if err != nil {
			_ = o.Release()
			_ = v.HypDomctlUnpause(c, caller, cs.D.ID)
			return nil, err
		}
		c.Charge(v.M.Costs.PageCopy)
		o.Dirty = append(o.Dirty, FrameRef{Off: off, H: sh})
	}
	if err := v.HypDomctlUnpause(c, caller, cs.D.ID); err != nil {
		// Mirror Checkpoint: the delta is complete and consistent —
		// return it alongside the resume failure.
		return o, fmt.Errorf("fork: delta checkpoint complete but resume failed: %w", err)
	}
	return o, nil
}

// sameAsBase reports whether data equals the base's content at off: its
// stored frame, or the zero page where the base has none.
func (b *BaseImage) sameAsBase(off uint32, data []byte) bool {
	if p := b.pages[off]; p != nil {
		return bytes.Equal(data, p)
	}
	return bytes.Equal(data, zeroPage)
}

// DestroyClone unpins the clone's roots, tears the domain down, and
// lets go of the clone's hold on its base.
func DestroyClone(c *hw.CPU, v *xen.VMM, caller *xen.Domain, cs *CloneState) error {
	if cs.destroyed {
		return fmt.Errorf("fork: double destroy of clone dom%d", cs.D.ID)
	}
	var firstErr error
	for _, root := range cs.Base.Img.PinnedRoots {
		nr := hw.PFN(int64(root) + cs.Delta)
		if cs.D.HasPinned(nr) {
			if err := v.HypUnpinTable(c, cs.D, nr); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := cs.abort(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
