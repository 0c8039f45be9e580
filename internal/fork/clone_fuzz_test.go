package fork

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hw"
)

// cloneModel is what one live clone's partition must read: a page per
// offset that is not all zero, keyed by offset.
type cloneModel struct {
	cs    *CloneState
	pages map[uint32][]byte
}

// overlayModel is what one overlay must flatten to.
type overlayModel struct {
	o     *Overlay
	pages map[uint32][]byte
}

// copyPages deep-copies a page model.
func copyPages(m map[uint32][]byte) map[uint32][]byte {
	out := make(map[uint32][]byte, len(m))
	for off, p := range m {
		out[off] = bytes.Clone(p)
	}
	return out
}

// relocatedBase returns the base's pages as a clone displaced by delta
// frames reads them before any write: the base's content, with every
// present entry of the pinned tree's directories and page tables moved
// by delta, as migrate.RelocateTables does.
func relocatedBase(t *testing.T, cb *CloneBase, delta int64) map[uint32][]byte {
	img := cb.Img
	pages := make(map[uint32][]byte, len(img.Refs))
	for _, r := range img.Refs {
		data, err := cb.Store.Get(r.H)
		if err != nil {
			t.Fatal(err)
		}
		pages[r.Off] = bytes.Clone(data)
	}
	if delta == 0 {
		return pages
	}
	shift := func(p []byte) (targets []uint32) {
		for i := 0; i < hw.PageSize; i += 4 {
			e := hw.PTE(binary.LittleEndian.Uint32(p[i:]))
			if !e.Present() {
				continue
			}
			targets = append(targets, uint32(e.Frame()-img.Lo))
			moved := hw.MakePTE(hw.PFN(int64(e.Frame())+delta), e.Flags())
			binary.LittleEndian.PutUint32(p[i:], uint32(moved))
		}
		return targets
	}
	for _, root := range img.PinnedRoots {
		for _, pt := range shift(pages[uint32(root-img.Lo)]) {
			shift(pages[pt])
		}
	}
	return pages
}

// FuzzCloneCycle decodes its input into clone, word-write,
// CheckpointDelta, DestroyClone, overlay-release and base-release ops
// on one base, six bytes an op: the op, which clone or overlay, the
// frame, the word (two bytes), and the byte the word is filled with (0
// writes zero). Clones made after a destroy promote and first-write
// into pages the dead clone's partition gave back. Once the base is
// released a clone is refused, while live clones still promote, take
// deltas and tear down against the base they hold. After every op each
// live clone's partition must read exactly its model (base content,
// its tables relocated, plus its own writes), each overlay must
// flatten to the clone as it was at its delta, a released base must
// own its references exactly while a clone or overlay holds it and
// none after, AuditRefs must hold over the base, the clones and the
// overlays, and Store.Verify must pass.
func FuzzCloneCycle(f *testing.F) {
	const (
		opClone = iota
		opWrite
		opDelta
		opDestroy
		opRelease
		opReleaseBase
		numOps
	)
	// TestManyClonesDedupAgainstOneBase: eight clones, then eight
	// destroys.
	var many []byte
	for i := 0; i < 8; i++ {
		many = append(many, opClone, 0, 0, 0, 0, 0)
	}
	for i := 0; i < 8; i++ {
		many = append(many, opDestroy, 0, 0, 0, 0, 0)
	}
	f.Add(many)
	// Dirty a clone (a base frame, a slack frame, a word back to zero),
	// take its delta, destroy it, and let a second clone reuse its pages.
	f.Add([]byte{
		opClone, 0, 0, 0, 0, 0,
		opWrite, 0, 5, 3, 0, 0x11,
		opWrite, 0, 200, 9, 0, 0x22,
		opWrite, 0, 201, 0, 0, 0,
		opDelta, 0, 0, 0, 0, 0,
		opDestroy, 0, 0, 0, 0, 0,
		opClone, 0, 0, 0, 0, 0,
		opWrite, 0, 210, 1, 0, 0x33,
		opWrite, 0, 6, 232, 3, 0x44,
		opDelta, 0, 0, 0, 0, 0,
		opRelease, 0, 0, 0, 0, 0,
		opDestroy, 0, 0, 0, 0, 0,
	})
	// Two live clones dirtying the same frames, deltas of both, the
	// first destroyed while its overlay lives on.
	f.Add([]byte{
		opClone, 0, 0, 0, 0, 0,
		opClone, 0, 0, 0, 0, 0,
		opWrite, 0, 7, 2, 0, 0x55,
		opWrite, 1, 7, 2, 0, 0x55,
		opWrite, 1, 63, 255, 3, 0,
		opDelta, 0, 0, 0, 0, 0,
		opDelta, 1, 0, 0, 0, 0,
		opDestroy, 0, 0, 0, 0, 0,
		opClone, 0, 0, 0, 0, 0,
		opWrite, 1, 7, 2, 0, 0x66,
		opRelease, 1, 0, 0, 0, 0,
	})
	// Release the base between two clones' writes: a third clone is
	// refused, the live ones promote, take deltas (one rewrites a frame
	// back to base content, which their holds keep stored) and tear
	// down.
	f.Add([]byte{
		opClone, 0, 0, 0, 0, 0,
		opClone, 0, 0, 0, 0, 0,
		opWrite, 0, 7, 2, 0, 0x55,
		opWrite, 1, 7, 2, 0, 0x66,
		opDelta, 1, 0, 0, 0, 0,
		opReleaseBase, 0, 0, 0, 0, 0,
		opClone, 0, 0, 0, 0, 0,
		opWrite, 0, 9, 4, 0, 0x77,
		opWrite, 1, 7, 2, 0, 0,
		opDelta, 0, 0, 0, 0, 0,
		opDestroy, 0, 0, 0, 0, 0,
		opDelta, 0, 0, 0, 0, 0,
		opRelease, 0, 0, 0, 0, 0,
		opDestroy, 0, 0, 0, 0, 0,
	})

	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			maxLive  = 8
			maxMade  = 10 // the partitions env's machine can hold
			maxOps   = 64
			opBytes  = 6
			wordsPer = hw.PageSize / 4
		)
		if len(ops) > maxOps*opBytes {
			ops = ops[:maxOps*opBytes]
		}
		v, dom0, origin, c := env(t)
		cb := warmBase(t, v, dom0, origin, c)
		span := uint32(cb.Img.Span())
		tables := relocatedBase(t, cb, 1) // any non-zero delta moves only the tree
		base := relocatedBase(t, cb, 0)
		var writable []uint32
		for off := uint32(0); off < span; off++ {
			if bytes.Equal(tables[off], base[off]) {
				writable = append(writable, off)
			}
		}

		var clones []*cloneModel
		var overlays []*overlayModel
		made := 0
		baseReleased := false
		check := func(step int) {
			t.Helper()
			holders := []RefHolder{cb.Img}
			want := len(cb.Img.Refs)
			if baseReleased && len(clones)+len(overlays) == 0 {
				want = 0
			}
			if got := cb.Img.LiveRefs(); got != want {
				t.Fatalf("op %d: base owns %d refs, want %d (released %v, %d clones, %d overlays)",
					step, got, want, baseReleased, len(clones), len(overlays))
			}
			for _, m := range clones {
				holders = append(holders, m.cs)
				for off := uint32(0); off < span; off++ {
					want := m.pages[off]
					if want == nil {
						want = zeroPage
					}
					if got := v.M.Mem.FrameBytesRO(m.cs.Lo + hw.PFN(off)); !bytes.Equal(got, want) {
						t.Fatalf("op %d: clone dom%d frame %d differs from its model", step, m.cs.D.ID, off)
					}
				}
			}
			for _, m := range overlays {
				holders = append(holders, m.o)
				img, err := m.o.Flatten()
				if err != nil {
					t.Fatalf("op %d: overlay of %s: %v", step, m.o.Name, err)
				}
				for off := uint32(0); off < span; off++ {
					got, want := img.Pages[m.o.Lo+hw.PFN(off)], m.pages[off]
					if want != nil && bytes.Equal(want, zeroPage) {
						want = nil // Flatten leaves zero frames implicit
					}
					if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
						t.Fatalf("op %d: overlay of %s flattens frame %d unlike its model", step, m.o.Name, off)
					}
				}
			}
			if err := AuditRefs(cb.Store, holders...); err != nil {
				t.Fatalf("op %d: %v", step, err)
			}
			if err := cb.Store.Verify(); err != nil {
				t.Fatalf("op %d: %v", step, err)
			}
		}

		for i := 0; i+opBytes <= len(ops); i += opBytes {
			op, which := ops[i]%numOps, int(ops[i+1])
			switch op {
			case opClone:
				if len(clones) == maxLive || made == maxMade {
					continue
				}
				cs, err := Clone(c, v, dom0, cb, "fuzz")
				if baseReleased {
					if err == nil {
						t.Fatalf("op %d: clone of a released base accepted", i/opBytes)
					}
					break
				}
				if err != nil {
					t.Fatalf("op %d: %v", i/opBytes, err)
				}
				made++
				clones = append(clones, &cloneModel{cs: cs, pages: relocatedBase(t, cb, cs.Delta)})
			case opWrite:
				if len(clones) == 0 {
					continue
				}
				m := clones[which%len(clones)]
				off := writable[int(ops[i+2])%len(writable)]
				word := uint32(binary.LittleEndian.Uint16(ops[i+3:])) % wordsPer
				val := uint32(ops[i+5]) * 0x0101_0101
				v.M.Mem.WriteWord((m.cs.Lo+hw.PFN(off)).Addr()+hw.PhysAddr(4*word), val)
				if m.pages[off] == nil {
					m.pages[off] = make([]byte, hw.PageSize)
				}
				binary.LittleEndian.PutUint32(m.pages[off][4*word:], val)
			case opDelta:
				if len(clones) == 0 {
					continue
				}
				m := clones[which%len(clones)]
				o, err := CheckpointDelta(c, v, dom0, m.cs)
				if err != nil {
					t.Fatalf("op %d: %v", i/opBytes, err)
				}
				overlays = append(overlays, &overlayModel{o: o, pages: copyPages(m.pages)})
			case opDestroy:
				if len(clones) == 0 {
					continue
				}
				k := which % len(clones)
				if err := DestroyClone(c, v, dom0, clones[k].cs); err != nil {
					t.Fatalf("op %d: %v", i/opBytes, err)
				}
				clones = append(clones[:k], clones[k+1:]...)
			case opRelease:
				if len(overlays) == 0 {
					continue
				}
				k := which % len(overlays)
				if err := overlays[k].o.Release(); err != nil {
					t.Fatalf("op %d: %v", i/opBytes, err)
				}
				overlays = append(overlays[:k], overlays[k+1:]...)
			case opReleaseBase:
				if err := cb.Img.Release(); err != nil {
					t.Fatalf("op %d: %v", i/opBytes, err)
				}
				baseReleased = true
			}
			check(i / opBytes)
		}

		for _, m := range clones {
			if err := DestroyClone(c, v, dom0, m.cs); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range overlays {
			if err := m.o.Release(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cb.Img.Release(); err != nil {
			t.Fatal(err)
		}
		if n := v.M.Mem.SharedFrames(); n != 0 {
			t.Fatalf("%d CoW mappings outlived every clone", n)
		}
		if f, r := cb.Store.Frames(), cb.Store.Refs(); f != 0 || r != 0 {
			t.Fatalf("store holds %d frames and %d refs after teardown", f, r)
		}
	})
}
