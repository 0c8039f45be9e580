package xen

import (
	"slices"
	"testing"

	"repro/internal/hw"
)

// relFuzzEnv is one FuzzReleaseRule machine: guest d over a forest built
// from the fuzz bytes, a second guest e with one small tree of its own,
// and dom0 as the backend that maps d's grants.
type relFuzzEnv struct {
	v      *VMM
	c      *hw.CPU
	d, e   *Domain
	dom0   *Domain
	roots  []hw.PFN // d's directories
	tables []hw.PFN // d's directories and the L1s they reach
	data   []hw.PFN // spare d frames an entry may map
	eRoot  hw.PFN
	spare  hw.PFN // a d frame nothing maps, the forgery's victim
	unmaps []func()
}

func newRelFuzzEnv(t *testing.T, data []byte) (*relFuzzEnv, fuzzInput) {
	t.Helper()
	h, err := BootHost(hw.Config{MemBytes: 20 << 20, NumCPUs: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, c := h.V, h.C
	half := hw.PFN(h.M.Frames.Available() / 2)
	d, err := v.CreateDomain("guest", half, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := v.CreateDomain("other", half, false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, d)
	in := fuzzInput(data)
	roots, reach := buildFuzzForest(v, d, &in)
	env := &relFuzzEnv{v: v, c: c, d: d, e: e, dom0: h.Dom0, roots: roots}
	env.tables = slices.Clone(roots)
	for _, l1s := range reach {
		env.tables = append(env.tables, l1s...)
	}
	for range 3 {
		env.data = append(env.data, d.Frames.Alloc())
	}
	env.spare = d.Frames.Alloc()
	tb, _ := buildTree(t, v, e, 2)
	env.eRoot = tb.Root
	return env, in
}

// op runs op kind (0-8) with argument bytes a, b, f and g; errors are
// outcomes, which the twins compare.
func (x *relFuzzEnv) op(kind, a, b, f, g byte) error {
	v, c, d := x.v, x.c, x.d
	root := x.roots[int(a)%len(x.roots)]
	switch kind {
	case 0:
		return v.HypPinTable(c, d, root)
	case 1:
		return v.HypUnpinTable(c, d, root)
	case 2:
		return v.HypNewBaseptr(c, d, root)
	case 3:
		// Any of the 12 flag bits; the frame a data frame, a table of
		// the forest or any frame number at all.
		var target hw.PFN
		switch sel := int(b); sel % 3 {
		case 0:
			target = x.data[sel/3%len(x.data)]
		case 1:
			target = x.tables[sel/3%len(x.tables)]
		default:
			target = hw.PFN(b)<<12 | hw.PFN(a)<<4 | hw.PFN(g&0xF)
		}
		u := MMUUpdate{
			Table: x.tables[int(a)%len(x.tables)],
			Index: int(g>>4) % 8,
			New:   hw.MakePTE(target, uint32(g&0xF)<<8|uint32(f)),
		}
		return v.HypMMUUpdate(c, d, []MMUUpdate{u})
	case 4:
		ref := d.GrantAccess(c, x.dom0.ID, x.data[int(a)%len(x.data)], b&1 != 0)
		_, unmap, err := v.GrantMap(c, x.dom0, d.ID, ref, false)
		if err == nil {
			x.unmaps = append(x.unmaps, unmap)
		}
		return err
	case 5:
		if len(x.unmaps) > 0 {
			x.unmaps[0]()
			x.unmaps = x.unmaps[1:]
		}
	case 6:
		if x.e.HasPinned(x.eRoot) {
			return v.HypUnpinTable(c, x.e, x.eRoot)
		}
		return v.HypPinTable(c, x.e, x.eRoot)
	case 7:
		// The chaos frametable-bitflip forgery: pinned, no typed ref.
		fi := v.FT.Get(x.spare)
		fi.Pinned, fi.TypeCount = true, 0
		v.FT.Set(x.spare, fi)
	case 8:
		return v.RecomputeFrameInfo(c, d, x.roots, 1+int(a)%3)
	}
	return nil
}

// forceWalk releases d by the walk ReleaseFrameInfo falls back to.
func forceWalk(v *VMM, c *hw.CPU, d *Domain) {
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	v.releaseWalk(c, d, sinkCharge)
}

// wantUnits is what the walk would charge to release every validated
// table, counted from the table and memory: one unit per validated L2,
// one per present entry of each validated L1. Each record is read as
// the table's epoch reads it.
func wantUnits(v *VMM) int {
	n := 0
	for pfn := range v.FT.frames {
		f := v.FT.read(hw.PFN(pfn))
		if f.typeCount == 0 {
			continue
		}
		switch f.typ {
		case FrameL2:
			n++
		case FrameL1:
			table := hw.ViewTable(v.M.Mem, hw.PFN(pfn))
			for i := 0; i < hw.PTEntries; i++ {
				if table.At(i).Present() {
					n++
				}
			}
		}
	}
	return n
}

// checkTally requires the release tally to match the table.
func (x *relFuzzEnv) checkTally(t *testing.T) {
	t.Helper()
	rel := x.v.rel
	if x.v.FT.forged {
		return // a forged record is nobody's to count
	}
	if want := wantUnits(x.v); rel.units != want {
		t.Fatalf("release tally %d units, the table holds %d", rel.units, want)
	}
	holders := 0
	for _, dom := range []*Domain{x.d, x.e, x.dom0} {
		holders += len(dom.pinnedRoots)
		if dom.baseHeld {
			holders++
		}
	}
	if rel.holders != holders || rel.grants != len(x.unmaps) {
		t.Fatalf("tally holds %d holders and %d grants, want %d and %d",
			rel.holders, rel.grants, holders, len(x.unmaps))
	}
}

// FuzzReleaseRule checks the detach's release rule against the walk it
// replaces. Twin machines build the same forest (L1s shared across
// roots) and run the same ops: pins, unpins, new base pointers,
// mmu_updates with any frame and flag bits, grant maps and unmaps, pins
// by a second domain, the chaos forgery and recomputes. At each release
// op, A releases d by ReleaseFrameInfo and B by the forced walk: they
// must leave equal frame tables, pins, tallies and clocks, and A must
// have taken the rule exactly when no grant is mapped, e holds no pin,
// the base pointer holds a pinned root or nothing, and nothing was
// forged. The release tally must match the table after every op.
func FuzzReleaseRule(f *testing.F) {
	// Two roots over one shared L1 (one writable and one read-only
	// entry), root 1 also over a private L1; then the ops, five bytes
	// each, and 9 for a release.
	forest := []byte{1, 2, 0x11, 0, 0x01, 1, 1, 1, 1, 0, 2, 1, 2, 0, 1, 0x11, 2, 0}
	seed := func(ops ...[]byte) []byte {
		return slices.Concat(append([][]byte{forest}, ops...)...)
	}
	release := []byte{9}
	// Pin both roots, install one, map a grant: release walks. Recompute
	// on two workers, install the other root, unmap: release by rule.
	f.Add(seed([]byte{0, 0, 0, 0, 0}, []byte{0, 1, 0, 0, 0}, []byte{2, 0, 0, 0, 0},
		[]byte{4, 0, 0, 0, 0}, release, []byte{8, 1, 0, 0, 0}, []byte{2, 1, 0, 0, 0},
		[]byte{5, 0, 0, 0, 0}, release))
	// Install root 0 and unpin it, so the base pointer holds an unpinned
	// directory: release walks. Recompute adopts CR3: release by rule.
	f.Add(seed([]byte{2, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0}, release,
		[]byte{8, 0, 0, 0, 0}, release))
	// Entry stores into the shared L1 (a writable data frame, a
	// directory read-only, a frame past memory, a clear); e pins its
	// tree: release walks. e unpins: release by rule. A forgery: release
	// walks.
	f.Add(seed([]byte{0, 0, 0, 0, 0}, []byte{3, 2, 0, 0x03, 0x30}, []byte{3, 2, 1, 0x01, 0x40},
		[]byte{3, 2, 2, 0x01, 0x50}, []byte{3, 2, 0, 0x00, 0x30}, []byte{6, 0, 0, 0, 0},
		release, []byte{6, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0}, release,
		[]byte{0, 1, 0, 0, 0}, []byte{7, 0, 0, 0, 0}, release))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, in := newRelFuzzEnv(t, data)
		b, _ := newRelFuzzEnv(t, data)
		forged := false
		for n := 0; len(in) > 0 && n < 32; n++ {
			kind := in.next() % 10
			if kind != 9 {
				x, y, z, w := in.next(), in.next(), in.next(), in.next()
				errA, errB := a.op(kind, x, y, z, w), b.op(kind, x, y, z, w)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("op %d: twins disagree: %v vs %v", kind, errA, errB)
				}
				forged = forged || kind == 7
				a.checkTally(t)
				continue
			}
			if a.c.Now() != b.c.Now() {
				t.Fatalf("twins' clocks differ before a release: %d vs %d", a.c.Now(), b.c.Now())
			}
			rule := len(a.unmaps) == 0 && !a.e.HasPinned(a.eRoot) && !forged &&
				(!a.d.baseHeld || a.d.HasPinned(a.d.baseptr))
			a0 := a.c.Now()
			a.v.ReleaseFrameInfo(a.c, a.d)
			forceWalk(b.v, b.c, b.d)
			if took := a.v.FT.Touched() == 0; took != rule {
				t.Fatalf("release took the rule: %v, want %v", took, rule)
			}
			if err := a.v.FT.Equal(b.v.FT); err != nil {
				t.Fatalf("rule and walk leave different tables: %v", err)
			}
			if a.c.Now() != b.c.Now() {
				t.Fatalf("rule charged %d, walk %d", a.c.Now()-a0, b.c.Now()-a0)
			}
			for _, pair := range [][2]*Domain{{a.d, b.d}, {a.e, b.e}} {
				if pa, pb := pair[0].PinnedRoots(), pair[1].PinnedRoots(); !slices.Equal(pa, pb) {
					t.Fatalf("dom%d pins %v vs %v", pair[0].ID, pa, pb)
				}
			}
			if a.d.baseHeld || b.d.baseHeld || len(a.d.pinnedRoots) != 0 {
				t.Fatal("a release left a pin or base pointer behind")
			}
			if !forged && a.v.rel != b.v.rel {
				t.Fatalf("tallies differ after release: %+v vs %+v", a.v.rel, b.v.rel)
			}
			a.checkTally(t)
		}
	})
}
