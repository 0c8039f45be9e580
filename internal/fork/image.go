package fork

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hw"
	"repro/internal/migrate"
)

// FrameRef points one frame of an image at content in the Store. Off is
// the frame's position relative to the image's partition base — offsets,
// not absolute PFNs, so identity survives restoring into a differently
// placed partition.
type FrameRef struct {
	Off uint32
	H   Hash
}

// BaseImage is a checkpoint image broken into content-addressed frames:
// the metadata of a migrate.DomainImage plus one store reference per
// non-zero frame. A base is the read-only template clones map against.
// Each clone and each overlay made from it holds it once, from when it
// is made until its teardown or Release; the base owns one reference
// per entry in Refs until it is released and no longer held.
type BaseImage struct {
	store *Store

	Name        string
	Lo, Hi      hw.PFN // source partition [Lo, Hi)
	CR3         hw.PFN
	VIF         bool
	PinnedRoots []hw.PFN // sorted ascending
	Privileged  bool

	// Refs holds the non-zero frames in ascending-offset order.
	Refs []FrameRef

	// pages holds each offset's shared bytes, which every clone maps
	// and CheckpointDelta compares against; nil where the base has no
	// frame. The base's references keep them stored while it is held.
	pages [][]byte

	mu       sync.Mutex
	holds    int  // live clones and overlays made from the base
	released bool // no new clones; references dropped once unheld
}

// NewBase ingests a checkpoint image into the store. Frames are Put in
// sorted-PFN order (deterministic store accounting); a second ingest of
// an identical image stores zero new bytes. The store takes ownership
// of img.Pages: a page whose content it lacks is stored as is, not
// copied, so the caller must not write the image's pages afterwards.
func NewBase(store *Store, img *migrate.DomainImage) (*BaseImage, error) {
	b := &BaseImage{
		store: store,
		Name:  img.Name, Lo: img.Lo, Hi: img.Hi,
		CR3: img.CR3, VIF: img.VIF, Privileged: img.Privileged,
		PinnedRoots: append([]hw.PFN(nil), img.PinnedRoots...),
		pages:       make([][]byte, img.Hi-img.Lo),
	}
	sort.Slice(b.PinnedRoots, func(i, j int) bool { return b.PinnedRoots[i] < b.PinnedRoots[j] })
	pfns := make([]hw.PFN, 0, len(img.Pages))
	for pfn := range img.Pages {
		if pfn < img.Lo || pfn >= img.Hi {
			return nil, fmt.Errorf("fork: image page %d outside partition [%d,%d)", pfn, img.Lo, img.Hi)
		}
		pfns = append(pfns, pfn)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	for _, pfn := range pfns {
		e, err := store.put(img.Pages[pfn], true)
		if err != nil {
			_ = store.release(b.Refs)
			return nil, err
		}
		off := uint32(pfn - img.Lo)
		b.Refs = append(b.Refs, FrameRef{Off: off, H: e.key})
		b.pages[off] = e.data
	}
	return b, nil
}

// Span returns the partition size in frames.
func (b *BaseImage) Span() hw.PFN { return b.Hi - b.Lo }

// LiveRefs reports the store references the base currently owns: all
// of them until it is released and no longer held, none after.
func (b *BaseImage) LiveRefs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released && b.holds == 0 {
		return 0
	}
	return len(b.Refs)
}

// holders reports how many clones and overlays hold the base.
func (b *BaseImage) holders() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.holds
}

// hold takes one hold on the base. A new clone's is refused once the
// base is released; an overlay's never is, since the clone it is taken
// from holds the base.
func (b *BaseImage) hold(clone bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if clone && b.released {
		return fmt.Errorf("fork: clone from released base %q", b.Name)
	}
	b.holds++
	return nil
}

// letGo drops one hold on the base.
func (b *BaseImage) letGo() error {
	b.mu.Lock()
	b.holds--
	return b.unlock()
}

// Release refuses new clones at once. The base's store references are
// dropped when nothing holds it any more: clones and overlays made from
// it keep it, and stay valid, until they let go.
func (b *BaseImage) Release() error {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return nil
	}
	b.released = true
	return b.unlock()
}

// unlock unlocks b.mu and, if the base is released and no longer held,
// drops its store references.
func (b *BaseImage) unlock() error {
	drop := b.released && b.holds == 0
	b.mu.Unlock()
	if !drop {
		return nil
	}
	return b.store.release(b.Refs)
}

// Image reconstructs the flat DomainImage (for migrate.Restore or
// serialization). Pages are fresh copies.
func (b *BaseImage) Image() (*migrate.DomainImage, error) {
	img := &migrate.DomainImage{
		Name: b.Name, Lo: b.Lo, Hi: b.Hi,
		CR3: b.CR3, VIF: b.VIF, Privileged: b.Privileged,
		PinnedRoots: append([]hw.PFN(nil), b.PinnedRoots...),
		Pages:       make(map[hw.PFN][]byte, len(b.Refs)),
	}
	for _, r := range b.Refs {
		data, err := b.store.Get(r.H)
		if err != nil {
			return nil, err
		}
		cp := make([]byte, hw.PageSize)
		copy(cp, data)
		img.Pages[b.Lo+hw.PFN(r.Off)] = cp
	}
	return img, nil
}

// IdentityHash is the position-independent identity of the state the
// image describes: partition span, vcpu state (CR3 as an offset), the
// pinned-root offsets, and every frame as (offset, content hash) in
// ascending order. The domain name and the partition's absolute
// placement are excluded — a clone restored at another address with
// untouched memory has the same identity as its base.
func (b *BaseImage) IdentityHash() Hash {
	return identityHash(uint32(b.Span()), uint32(b.CR3-b.Lo), b.VIF, b.Privileged,
		rootOffs(b.PinnedRoots, b.Lo), b.Refs)
}

// Overlay is the delta of a forked domain against its base: only the
// frames whose content diverged, each a store reference the overlay
// owns, and one hold on the base, which keeps the frames Flatten takes
// from it stored. A frame that became all-zero is recorded with the
// zero-page hash so Flatten knows to drop the base's content there.
type Overlay struct {
	store *Store
	Base  *BaseImage

	Name        string
	Lo, Hi      hw.PFN // clone partition [Lo, Hi)
	CR3         hw.PFN
	VIF         bool
	PinnedRoots []hw.PFN // sorted ascending, clone-relative placement

	// Dirty holds the diverged frames in ascending-offset order.
	Dirty []FrameRef

	released bool
}

// DeltaFrames returns the number of diverged frames the overlay stores.
func (o *Overlay) DeltaFrames() int { return len(o.Dirty) }

// LiveRefs reports the store references the overlay currently owns.
func (o *Overlay) LiveRefs() int {
	if o.released {
		return 0
	}
	return len(o.Dirty)
}

// Release drops the overlay's store references and its hold on the
// base.
func (o *Overlay) Release() error {
	if o.released {
		return nil
	}
	o.released = true
	err := o.store.release(o.Dirty)
	if berr := o.Base.letGo(); err == nil {
		err = berr
	}
	return err
}

// effective merges base and delta into the clone's logical frame set:
// dirty entries override the base at the same offset, and a dirty
// zero-page entry erases it.
func (o *Overlay) effective() []FrameRef {
	m := make(map[uint32]Hash, len(o.Base.Refs)+len(o.Dirty))
	for _, r := range o.Base.Refs {
		m[r.Off] = r.H
	}
	for _, r := range o.Dirty {
		if r.H == zeroHash {
			delete(m, r.Off)
			continue
		}
		m[r.Off] = r.H
	}
	out := make([]FrameRef, 0, len(m))
	for off, h := range m {
		out = append(out, FrameRef{Off: off, H: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// IdentityHash is the clone's position-independent identity (same
// construction as BaseImage.IdentityHash, over the merged frame set).
// An unmodified clone — empty delta, same vcpu offsets — has exactly
// its base's identity.
func (o *Overlay) IdentityHash() Hash {
	return identityHash(uint32(o.Hi-o.Lo), uint32(o.CR3-o.Lo), o.VIF, o.Base.Privileged,
		rootOffs(o.PinnedRoots, o.Lo), o.effective())
}

// Flatten materializes the clone's full image (base plus delta) at the
// clone's partition.
func (o *Overlay) Flatten() (*migrate.DomainImage, error) {
	img := &migrate.DomainImage{
		Name: o.Name, Lo: o.Lo, Hi: o.Hi,
		CR3: o.CR3, VIF: o.VIF, Privileged: o.Base.Privileged,
		PinnedRoots: append([]hw.PFN(nil), o.PinnedRoots...),
		Pages:       make(map[hw.PFN][]byte),
	}
	for _, r := range o.effective() {
		data, err := o.store.Get(r.H)
		if err != nil {
			return nil, err
		}
		cp := make([]byte, hw.PageSize)
		copy(cp, data)
		img.Pages[o.Lo+hw.PFN(r.Off)] = cp
	}
	return img, nil
}

// rootOffs converts absolute pinned roots to partition offsets.
func rootOffs(roots []hw.PFN, lo hw.PFN) []uint32 {
	out := make([]uint32, len(roots))
	for i, r := range roots {
		out[i] = uint32(r - lo)
	}
	return out
}

// identityHash folds the canonical image description into one digest.
// Every field is length- or count-prefixed fixed-width little-endian,
// so distinct states cannot collide by field concatenation.
func identityHash(span, cr3Off uint32, vif, privileged bool,
	roots []uint32, frames []FrameRef) Hash {

	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	putBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	put(span)
	put(cr3Off)
	putBool(vif)
	putBool(privileged)
	put(uint32(len(roots)))
	for _, r := range roots {
		put(r)
	}
	put(uint32(len(frames)))
	for _, f := range frames {
		put(f.Off)
		h.Write(f.H[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}
