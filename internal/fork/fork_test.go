package fork

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// env builds an active VMM with a privileged dom0 and an origin guest
// holding a recognizable pattern plus a tiny pinned page-table tree, so
// clones exercise relocation and re-pinning.
func env(t testing.TB) (*xen.VMM, *xen.Domain, *xen.Domain, *hw.CPU) {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	v, dom0, c := h.V, h.Dom0, h.C
	origin, err := v.CreateDomain("origin", 256, false)
	if err != nil {
		t.Fatal(err)
	}

	lo, _ := origin.Frames.Range()
	for i := 0; i < 64; i++ {
		v.M.Mem.WriteWord((lo + hw.PFN(i)).Addr(), 0xAB00_0000|uint32(i))
	}
	root, pt, data := lo+100, lo+101, lo+5
	hw.WritePTE(v.M.Mem, root, 3, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(v.M.Mem, pt, 7, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	origin.VCPU0().SetCR3(root)
	return v, dom0, origin, c
}

// warmBase checkpoints the origin and ingests it into a fresh store.
func warmBase(t testing.TB, v *xen.VMM, dom0, origin *xen.Domain, c *hw.CPU) *CloneBase {
	t.Helper()
	img, err := migrate.Checkpoint(c, v, dom0, origin)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := origin.Frames.Range()
	img.PinnedRoots = []hw.PFN{lo + 100}
	store := NewStore()
	base, err := NewBase(store, img)
	if err != nil {
		t.Fatal(err)
	}
	return &CloneBase{Store: store, Img: base}
}

func TestStoreDedupAndRefcounts(t *testing.T) {
	s := NewStore()
	page := make([]byte, hw.PageSize)
	page[17] = 9
	h1, err := s.Put(page)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := s.Put(page) // identical content: dedups, adds a ref
	if h1 != h2 {
		t.Fatal("same content hashed differently")
	}
	if s.Frames() != 1 || s.Refs() != 2 {
		t.Fatalf("frames=%d refs=%d, want 1/2", s.Frames(), s.Refs())
	}
	if got := s.DedupRatio(); got != 2 {
		t.Fatalf("dedup ratio = %v, want 2", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(h1); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(h1); err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 0 {
		t.Fatal("frame survived last release")
	}
	if err := s.Release(h1); err == nil {
		t.Fatal("release of absent frame must error")
	}
	if _, err := s.Put(page[:100]); err == nil {
		t.Fatal("short Put must error")
	}
}

// A base frame released behind the base's back leaves the store while
// the base still names it: the base's own release reports the frame
// absent while it releases the rest.
func TestBaseFrameGoneFromStore(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	frames := cb.Store.Frames()
	if err := cb.Store.Release(cb.Img.Refs[3].H); err != nil {
		t.Fatal(err)
	}
	if got := cb.Store.Frames(); got != frames-1 {
		t.Fatalf("store holds %d frames after the release, want %d", got, frames-1)
	}
	if err := cb.Img.Release(); err == nil || !strings.Contains(err.Error(), "Release of absent frame") {
		t.Fatalf("release of a base missing a frame: err %v", err)
	}
	if f, r := cb.Store.Frames(), cb.Store.Refs(); f != 0 || r != 0 {
		t.Fatalf("store holds %d frames and %d refs after the base's release", f, r)
	}
}

func TestCloneSharesFramesAndPromotesOnWrite(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	base := cb.Img

	start := c.Now()
	cs, err := Clone(c, v, dom0, cb, "clone-a")
	if err != nil {
		t.Fatal(err)
	}
	cloneCyc := c.Now() - start
	// The fork must cost mappings, not copies: well under one PageCopy
	// per frame (a flat restore of 60+ frames costs >54k cycles).
	if budget := hw.Cycles(len(base.Refs)) * v.M.Costs.PageCopy / 2; cloneCyc > budget {
		t.Fatalf("clone cost %d cycles, want < %d (copy-dominated)", cloneCyc, budget)
	}

	// Relocation promoted exactly the two table frames.
	if cs.PromotedCount() != 2 {
		t.Fatalf("promoted %d frames at clone time, want 2 (root+pt)", cs.PromotedCount())
	}
	if want := len(base.Refs) - 2; cs.SharedCount() != want {
		t.Fatalf("shared %d frames, want %d", cs.SharedCount(), want)
	}

	// Clone reads see base content through the shared mappings.
	lo, _ := origin.Frames.Range()
	for i := 0; i < 64; i++ {
		if got := v.M.Mem.ReadWord((cs.Lo + hw.PFN(i)).Addr()); got != 0xAB00_0000|uint32(i) {
			t.Fatalf("clone frame %d reads %#x", i, got)
		}
	}
	// The relocated tree walks inside the clone partition.
	newRoot := hw.PFN(int64(lo+100) + cs.Delta)
	if cs.D.VCPU0().CR3() != newRoot {
		t.Fatalf("clone CR3 = %d, want %d", cs.D.VCPU0().CR3(), newRoot)
	}
	if !cs.D.HasPinned(newRoot) {
		t.Fatal("relocated root not pinned on clone")
	}
	w, ok := hw.Walk(v.M.Mem, newRoot, hw.VirtAddr(3<<hw.PDShift|7<<hw.PageShift))
	if !ok {
		t.Fatal("relocated tree does not walk")
	}
	if got := w.PTE.Frame(); got != hw.PFN(int64(lo+5)+cs.Delta) {
		t.Fatalf("relocated leaf points at %d", got)
	}

	// A write promotes one frame and leaves the store's references as
	// they were: the base owns them, not the clone. The base keeps
	// serving the original content.
	sharedBefore, refsBefore := cs.SharedCount(), cb.Store.Refs()
	v.M.Mem.WriteWord(cs.Lo.Addr(), 0xDEAD)
	if cs.SharedCount() != sharedBefore-1 {
		t.Fatal("write did not promote the frame")
	}
	if got := cb.Store.Refs(); got != refsBefore {
		t.Fatalf("promotion moved the store's refs from %d to %d", refsBefore, got)
	}
	if got := v.M.Mem.ReadWord(lo.Addr()); got != 0xAB00_0000 {
		t.Fatalf("origin frame disturbed by clone write: %#x", got)
	}
	if err := AuditRefs(cb.Store, base, cs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointDeltaStoresOnlyDirt(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)

	cs, err := Clone(c, v, dom0, cb, "clone-b")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty 5 data frames; rewrite a 6th back to its base content (a
	// promoted-but-unchanged frame must not enter the delta).
	for i := 0; i < 5; i++ {
		v.M.Mem.WriteWord((cs.Lo + hw.PFN(10+i)).Addr(), 0xC10E_0000|uint32(i))
	}
	v.M.Mem.WriteWord((cs.Lo + 20).Addr(), 0xAB00_0000|20)

	o, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		t.Fatal(err)
	}
	// Delta = 5 dirtied + 2 relocated table frames; the written-back
	// frame and every still-shared frame cost nothing.
	if o.DeltaFrames() != 7 {
		t.Fatalf("delta holds %d frames, want 7", o.DeltaFrames())
	}
	if err := AuditRefs(cb.Store, cb.Img, cs, o); err != nil {
		t.Fatal(err)
	}

	// Flattening the overlay reproduces exactly what a full checkpoint
	// of the clone sees.
	full, err := migrate.Checkpoint(c, v, dom0, cs.D)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := o.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Pages) != len(full.Pages) {
		t.Fatalf("flatten has %d pages, full checkpoint %d", len(flat.Pages), len(full.Pages))
	}
	for pfn, data := range full.Pages {
		if !bytes.Equal(flat.Pages[pfn], data) {
			t.Fatalf("flattened frame %d diverges from live clone", pfn)
		}
	}
	if flat.CR3 != full.CR3 || flat.VIF != full.VIF {
		t.Fatal("flattened vcpu state diverges")
	}
}

func TestUnmodifiedCloneKeepsBaseIdentity(t *testing.T) {
	v1, dom01, origin, c1 := env(t)
	cb := warmBase(t, v1, dom01, origin, c1)

	// A second machine with the identical partition layout: the clone
	// lands at zero displacement, so nothing — not even the page-table
	// frames — is promoted.
	h2, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	v2, dom02, c2 := h2.V, h2.Dom0, h2.C

	cs, err := Clone(c2, v2, dom02, cb, "clone-zero")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Delta != 0 {
		t.Fatalf("clone displaced by %d frames; layout mismatch", cs.Delta)
	}
	if cs.PromotedCount() != 0 {
		t.Fatalf("%d frames promoted on an untouched zero-delta clone", cs.PromotedCount())
	}

	o, err := CheckpointDelta(c2, v2, dom02, cs)
	if err != nil {
		t.Fatal(err)
	}
	if o.DeltaFrames() != 0 {
		t.Fatalf("untouched clone produced a %d-frame delta", o.DeltaFrames())
	}
	if o.IdentityHash() != cb.Img.IdentityHash() {
		t.Fatal("unmodified clone's identity diverged from its base")
	}

	// Re-ingesting the flattened clone stores zero new frames and
	// yields the same identity — the store hash of a restored-then-
	// recheckpointed unmodified clone equals its base's.
	framesBefore := cb.Store.Frames()
	flat, err := o.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	base2, err := NewBase(cb.Store, flat)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Store.Frames() != framesBefore {
		t.Fatalf("re-ingest grew the store from %d to %d frames", framesBefore, cb.Store.Frames())
	}
	if base2.IdentityHash() != cb.Img.IdentityHash() {
		t.Fatal("re-ingested clone image has a different identity hash")
	}
	if err := AuditRefs(cb.Store, cb.Img, cs, o, base2); err != nil {
		t.Fatal(err)
	}
}

func TestCloneRollbackOnPinFailureReleasesEverything(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	refs0 := cb.Store.Refs()
	doms0 := len(v.Domains)

	v.InjectPinFailures(1)
	if _, err := Clone(c, v, dom0, cb, "doomed"); err == nil {
		t.Fatal("clone must fail when pinning fails")
	}
	if got := cb.Store.Refs(); got != refs0 {
		t.Fatalf("rollback leaked refs: %d, want %d", got, refs0)
	}
	if v.M.Mem.SharedFrames() != 0 {
		t.Fatalf("%d CoW mappings survived rollback", v.M.Mem.SharedFrames())
	}
	if len(v.Domains) != doms0 {
		t.Fatal("aborted clone domain survived rollback")
	}
	if err := AuditRefs(cb.Store, cb.Img); err != nil {
		t.Fatal(err)
	}

	// The base is intact: a retry succeeds.
	cs, err := Clone(c, v, dom0, cb, "retry")
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if err := AuditRefs(cb.Store, cb.Img, cs); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyCloneAndReleaseDrainStore(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)

	cs, err := Clone(c, v, dom0, cb, "short-lived")
	if err != nil {
		t.Fatal(err)
	}
	v.M.Mem.WriteWord(cs.Lo.Addr(), 0xBEEF) // promote one frame
	o, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := DestroyClone(c, v, dom0, cs); err != nil {
		t.Fatal(err)
	}
	if err := DestroyClone(c, v, dom0, cs); err == nil {
		t.Fatal("double destroy must error")
	}
	if v.M.Mem.SharedFrames() != 0 {
		t.Fatal("CoW mappings survived destroy")
	}
	if err := AuditRefs(cb.Store, cb.Img, o); err != nil {
		t.Fatal(err)
	}
	if err := o.Release(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Img.Release(); err != nil {
		t.Fatal(err)
	}
	if cb.Store.Frames() != 0 || cb.Store.Refs() != 0 {
		t.Fatalf("store not drained: %d frames, %d refs", cb.Store.Frames(), cb.Store.Refs())
	}
}

func TestManyClonesDedupAgainstOneBase(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	framesAfterBase := cb.Store.Frames()

	var clones []*CloneState
	for i := 0; i < 8; i++ {
		cs, err := Clone(c, v, dom0, cb, "fleet")
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, cs)
	}
	// Eight clones added zero frames to the store.
	if cb.Store.Frames() != framesAfterBase {
		t.Fatalf("cloning grew the store to %d frames (base %d)", cb.Store.Frames(), framesAfterBase)
	}
	holders := []RefHolder{cb.Img}
	for _, cs := range clones {
		holders = append(holders, cs)
	}
	if err := AuditRefs(cb.Store, holders...); err != nil {
		t.Fatal(err)
	}
	for _, cs := range clones {
		if err := DestroyClone(c, v, dom0, cs); err != nil {
			t.Fatal(err)
		}
	}
	if err := AuditRefs(cb.Store, cb.Img); err != nil {
		t.Fatal(err)
	}
}

// An overlay holds its base: once its clone is destroyed and the base
// released, it still flattens to the image the clone had at the delta,
// with the same identity, and its release drains the store.
func TestOverlayOutlivesCloneAndBase(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	cs, err := Clone(c, v, dom0, cb, "parent")
	if err != nil {
		t.Fatal(err)
	}
	v.M.Mem.WriteWord((cs.Lo + 12).Addr(), 0xC10E_0012)
	v.M.Mem.WriteWord((cs.Lo + 190).Addr(), 0xC10E_0190)
	o, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := migrate.Checkpoint(c, v, dom0, cs.D)
	if err != nil {
		t.Fatal(err)
	}
	id := o.IdentityHash()
	if err := DestroyClone(c, v, dom0, cs); err != nil {
		t.Fatal(err)
	}
	if err := cb.Img.Release(); err != nil {
		t.Fatal(err)
	}
	flat, err := o.Flatten()
	if err != nil {
		t.Fatalf("flatten after the clone and the base are gone: %v", err)
	}
	if len(flat.Pages) != len(full.Pages) {
		t.Fatalf("flatten has %d pages, the clone's checkpoint %d", len(flat.Pages), len(full.Pages))
	}
	for pfn, data := range full.Pages {
		if !bytes.Equal(flat.Pages[pfn], data) {
			t.Fatalf("flattened frame %d diverges from the clone's checkpoint", pfn)
		}
	}
	if o.IdentityHash() != id {
		t.Fatal("overlay's identity changed once its clone and base were gone")
	}
	if got, want := cb.Img.LiveRefs(), len(cb.Img.Refs); got != want {
		t.Fatalf("released base held by an overlay owns %d refs, want %d", got, want)
	}
	if err := AuditRefs(cb.Store, cb.Img, o); err != nil {
		t.Fatal(err)
	}
	if err := o.Release(); err != nil {
		t.Fatal(err)
	}
	if f, r := cb.Store.Frames(), cb.Store.Refs(); f != 0 || r != 0 {
		t.Fatalf("store holds %d frames and %d refs after the overlay's release", f, r)
	}
}

// A base released under a live clone keeps serving it and refuses new
// clones. Its references stay in the store, exactly, until the last of
// its clone and overlay lets go, in either order; the store then holds
// nothing.
func TestReleasedBaseDrainsWithLastHolder(t *testing.T) {
	for _, overlayLast := range []bool{false, true} {
		name := map[bool]string{false: "clone last", true: "overlay last"}[overlayLast]
		t.Run(name, func(t *testing.T) {
			v, dom0, origin, c := env(t)
			cb := warmBase(t, v, dom0, origin, c)
			baseRefs := int64(len(cb.Img.Refs))
			cs, err := Clone(c, v, dom0, cb, "held")
			if err != nil {
				t.Fatal(err)
			}
			v.M.Mem.WriteWord((cs.Lo + 12).Addr(), 0xC10E_0012)
			o, err := CheckpointDelta(c, v, dom0, cs)
			if err != nil {
				t.Fatal(err)
			}
			// Two relocated tables and one dirtied frame, each new content.
			dirty := int64(o.DeltaFrames())
			if dirty != 3 {
				t.Fatalf("delta holds %d frames, want 3", dirty)
			}
			if err := cb.Img.Release(); err != nil {
				t.Fatal(err)
			}
			if got := cb.Store.Refs(); got != baseRefs+dirty {
				t.Fatalf("release under a live clone left %d refs, want %d", got, baseRefs+dirty)
			}
			if _, err := Clone(c, v, dom0, cb, "late"); err == nil ||
				!strings.Contains(err.Error(), "clone from released base") {
				t.Fatalf("clone of a released base: err %v", err)
			}
			for i := 0; i < 64; i++ {
				want := 0xAB00_0000 | uint32(i)
				if i == 12 {
					want = 0xC10E_0012
				}
				if got := v.M.Mem.ReadWord((cs.Lo + hw.PFN(i)).Addr()); got != want {
					t.Fatalf("clone frame %d reads %#x, want %#x", i, got, want)
				}
			}
			// A write after the release promotes a base frame as before.
			v.M.Mem.WriteWord((cs.Lo + 13).Addr(), 0xAB00_0000|13)
			o2, err := CheckpointDelta(c, v, dom0, cs)
			if err != nil {
				t.Fatal(err)
			}
			if got := o2.DeltaFrames(); got != 3 {
				t.Fatalf("second delta holds %d frames, want 3", got)
			}
			if err := AuditRefs(cb.Store, cb.Img, cs, o, o2); err != nil {
				t.Fatal(err)
			}
			if err := o2.Release(); err != nil {
				t.Fatal(err)
			}

			first := func() error { return DestroyClone(c, v, dom0, cs) }
			last := o.Release
			if !overlayLast {
				first, last = o.Release, first
			}
			if err := first(); err != nil {
				t.Fatal(err)
			}
			// The overlay's frames are each one reference on new content.
			want := baseRefs
			if overlayLast {
				want += dirty
			}
			if f, r := int64(cb.Store.Frames()), cb.Store.Refs(); f != want || r != want {
				t.Fatalf("one holder left: store holds %d frames and %d refs, want %d of each", f, r, want)
			}
			if got := cb.Img.LiveRefs(); got != len(cb.Img.Refs) {
				t.Fatalf("held base owns %d refs, want %d", got, len(cb.Img.Refs))
			}
			if err := last(); err != nil {
				t.Fatal(err)
			}
			if f, r := cb.Store.Frames(), cb.Store.Refs(); f != 0 || r != 0 {
				t.Fatalf("last holder gone: store holds %d frames and %d refs", f, r)
			}
			if got := cb.Img.LiveRefs(); got != 0 {
				t.Fatalf("unheld released base owns %d refs", got)
			}
			if err := AuditRefs(cb.Store, cb.Img); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// AuditRefs checks a base's holds against the clones and overlays it is
// given: one left out, or one that never let go, is a hold leak even
// when the store's references balance.
func TestAuditRefsReportsHoldLeak(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	cs, err := Clone(c, v, dom0, cb, "unlisted")
	if err != nil {
		t.Fatal(err)
	}
	err = AuditRefs(cb.Store, cb.Img)
	if want := `fork: hold leak: base "origin" has 1 holds, live clones and overlays account for 0`; err == nil || err.Error() != want {
		t.Fatalf("audit without the live clone: err %v, want %q", err, want)
	}
	if err := AuditRefs(cb.Store, cb.Img, cs); err != nil {
		t.Fatal(err)
	}
	if err := DestroyClone(c, v, dom0, cs); err != nil {
		t.Fatal(err)
	}
	// A destroyed clone has let go: listed or not, it accounts for none.
	if err := AuditRefs(cb.Store, cb.Img, cs); err != nil {
		t.Fatal(err)
	}
	if err := AuditRefs(cb.Store, cb.Img); err != nil {
		t.Fatal(err)
	}
}
