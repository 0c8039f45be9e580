package xen

import (
	"slices"
	"testing"

	"repro/internal/hw"
)

// The native-mode ops FuzzAttachRule runs between a detach and the next
// attach: what the kernel, a fault or a test can do while the VMM is
// inert.
const (
	nativeVOStore   = iota // a valid leaf entry stored into an L1, as the kernel stores it
	nativeMemStore         // any value stored into any table entry, behind everyone's back
	nativeDirStore         // a directory entry set to a forest L1 or cleared
	nativeRoots            // a root dropped from or added to the attach's roots
	nativeCR3              // CR3 loaded with any forest table or the other domain's root
	nativeGrant            // dom0 maps a grant of one of d's frames
	nativeSetOwner         // a frame handed to the owner it already has
	nativeForge            // the chaos forgery through FrameTable.Set
	nativeInjectPin        // the next pin fails
)

// nativeOp runs native op kind with argument bytes a, b, f and g. It
// reports whether the op leaves the rule nothing to restore whatever
// memory then holds.
func (x *relFuzzEnv) nativeOp(kind, a, b, f, g byte, roots *[]hw.PFN) (spoils bool) {
	v, c, d := x.v, x.c, x.d
	l1s := x.tables[len(x.roots):]
	if len(l1s) == 0 {
		l1s = x.tables
	}
	switch kind {
	case nativeVOStore:
		flags := uint32(hw.PTEPresent | hw.PTEUser)
		if f&1 != 0 {
			flags |= hw.PTEWrite
		}
		pte := hw.MakePTE(x.data[int(b)%len(x.data)], flags)
		if f&2 != 0 {
			pte = 0
		}
		hw.WritePTE(v.M.Mem, l1s[int(a)%len(l1s)], int(g)%8, pte)
	case nativeMemStore:
		var target hw.PFN
		switch sel := int(b); sel % 3 {
		case 0:
			target = x.data[sel/3%len(x.data)]
		case 1:
			target = x.tables[sel/3%len(x.tables)]
		default:
			target = hw.PFN(b)<<12 | hw.PFN(a)<<4 | hw.PFN(g&0xF)
		}
		pte := hw.MakePTE(target, uint32(g&0xF)<<8|uint32(f))
		hw.WritePTE(v.M.Mem, x.tables[int(a)%len(x.tables)], int(g>>4)%8, pte)
	case nativeDirStore:
		var pde hw.PTE
		if f&1 != 0 {
			pde = hw.MakePTE(l1s[int(b)%len(l1s)], hw.PTEPresent|hw.PTEUser)
		}
		hw.WritePTE(v.M.Mem, x.roots[int(a)%len(x.roots)], int(g)%4, pde)
	case nativeRoots:
		if a&1 != 0 && len(*roots) > 0 {
			*roots = slices.Delete(*roots, int(b)%len(*roots), int(b)%len(*roots)+1)
		} else {
			*roots = append(*roots, x.roots[int(b)%len(x.roots)])
		}
	case nativeCR3:
		if a&1 != 0 {
			c.WriteCR3(x.eRoot)
		} else {
			c.WriteCR3(x.tables[int(b)%len(x.tables)])
		}
	case nativeGrant:
		return x.op(4, a, b, f, g) == nil
	case nativeSetOwner:
		v.FT.SetOwner(x.spare, d.ID)
		return true
	case nativeForge:
		x.op(7, a, b, f, g)
		return true
	case nativeInjectPin:
		v.InjectPinFailures(1)
		return true
	}
	return false
}

// forceRecompute attaches d over roots by the walk RecomputeFrameInfo
// falls back to.
func forceRecompute(v *VMM, c *hw.CPU, d *Domain, roots []hw.PFN) error {
	v.mmu.Lock(c)
	defer v.mmu.Unlock(c)
	v.keep.d = nil
	return v.recomputeWalk(c, d, roots, 1)
}

// errText is an error's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzAttachRule checks the attach's rule against the walk it replaces.
// Twin machines build FuzzReleaseRule's forest and run its ops while
// attached. At a detach both release by ReleaseFrameInfo, which must
// keep the table exactly when its release rule applies. While detached
// they run the same native ops: valid and arbitrary entry stores,
// directory stores, roots dropped or added, CR3 loads, grant maps,
// SetOwner, the forgery and an injected pin failure. At an attach A
// recomputes by RecomputeFrameInfo and B by the forced walk: they must
// return the same error and leave equal frame tables, pins, base
// pointers, tallies and clocks, and A must have restored the kept table
// exactly when the last detach kept it, nothing spoiled it, the roots
// and CR3 are the kept ones, the kept directories still hold their
// bytes, and the walk succeeds.
func FuzzAttachRule(f *testing.F) {
	// FuzzReleaseRule's forest; then the ops, five bytes each, and one
	// for a detach or an attach.
	forest := []byte{1, 2, 0x11, 0, 0x01, 1, 1, 1, 1, 0, 2, 1, 2, 0, 1, 0x11, 2, 0}
	seed := func(ops ...[]byte) []byte {
		return slices.Concat(append([][]byte{forest}, ops...)...)
	}
	sw := []byte{9}
	pinBoth := [][]byte{{0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {2, 0, 0, 0, 0}}
	cycle := func(native ...[]byte) []byte {
		ops := slices.Concat(pinBoth, [][]byte{sw}, native, [][]byte{sw})
		return seed(ops...)
	}
	// Nothing changes while detached: the rule restores the table.
	// Then a mapping store while attached, and a second round trip.
	f.Add(seed(slices.Concat(pinBoth, [][]byte{sw, sw, {3, 2, 0, 0x03, 0x30}, sw, sw})...))
	// A store through the VO: the rule replays it.
	f.Add(cycle([]byte{nativeVOStore, 0, 1, 1, 3}))
	// A store straight to memory of a writable mapping of a table: the
	// rule's replay refuses it, the walk fails. Cleared, the walk commits.
	f.Add(cycle([]byte{nativeMemStore, 2, 4, 0x03, 0x10}, sw, []byte{nativeMemStore, 2, 0, 0, 0x10}))
	// A directory store.
	f.Add(cycle([]byte{nativeDirStore, 1, 0, 1, 2}))
	// A root dropped, and a root added twice.
	f.Add(cycle([]byte{nativeRoots, 1, 0, 0, 0}))
	f.Add(cycle([]byte{nativeRoots, 0, 1, 0, 0}))
	// CR3 on a directory no pin holds, on an L1, and on another
	// domain's root.
	f.Add(seed([]byte{0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0}, sw, []byte{nativeCR3, 0, 1, 0, 0}, sw))
	f.Add(cycle([]byte{nativeCR3, 0, 2, 0, 0}))
	f.Add(cycle([]byte{nativeCR3, 1, 0, 0, 0}))
	// A grant map, a SetOwner, the forgery, an injected pin failure.
	f.Add(cycle([]byte{nativeGrant, 0, 0, 0, 0}))
	f.Add(cycle([]byte{nativeSetOwner, 0, 0, 0, 0}))
	f.Add(cycle([]byte{nativeForge, 0, 0, 0, 0}))
	f.Add(cycle([]byte{nativeInjectPin, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, in := newRelFuzzEnv(t, data)
		b, _ := newRelFuzzEnv(t, data)
		attached, forged := true, false
		var kept, roots []hw.PFN // the roots the last detach kept; the attach's roots
		var dirs [][]byte        // the kept roots' directories at the detach
		spoiled := false
		for n := 0; len(in) > 0 && n < 32; n++ {
			kind := in.next() % 10
			if kind != 9 {
				x, y, z, w := in.next(), in.next(), in.next(), in.next()
				if !attached {
					sa := a.nativeOp(kind, x, y, z, w, &roots)
					b.nativeOp(kind, x, y, z, w, new([]hw.PFN))
					spoiled = spoiled || sa
					forged = forged || kind == nativeForge
					continue
				}
				errA, errB := a.op(kind, x, y, z, w), b.op(kind, x, y, z, w)
				if errText(errA) != errText(errB) {
					t.Fatalf("op %d: twins disagree: %v vs %v", kind, errA, errB)
				}
				forged = forged || kind == 7
				a.checkTally(t)
				continue
			}
			if a.c.Now() != b.c.Now() {
				t.Fatalf("twins' clocks differ before a switch: %d vs %d", a.c.Now(), b.c.Now())
			}
			if attached {
				rule := len(a.unmaps) == 0 && !a.e.HasPinned(a.eRoot) && !forged &&
					(!a.d.baseHeld || a.d.HasPinned(a.d.baseptr))
				kept, dirs, spoiled = nil, nil, false
				roots = a.d.PinnedRoots()
				if rule {
					kept = slices.Clone(roots)
					for _, r := range kept {
						dirs = append(dirs, slices.Clone(a.v.M.Mem.FrameBytesRO(r)))
					}
				}
				a.v.ReleaseFrameInfo(a.c, a.d)
				b.v.ReleaseFrameInfo(b.c, b.d)
				if (a.v.keep.d != nil) != rule {
					t.Fatalf("detach kept the table: %v, want %v", a.v.keep.d != nil, rule)
				}
				if err := a.v.FT.Equal(b.v.FT); err != nil || a.c.Now() != b.c.Now() {
					t.Fatalf("twins differ after a detach: %v, clocks %d vs %d", err, a.c.Now(), b.c.Now())
				}
				attached = false
				continue
			}
			sorted := slices.Clone(roots)
			slices.Sort(sorted)
			want := kept != nil && !spoiled && slices.Equal(sorted, kept)
			if _, ok := slices.BinarySearch(kept, a.c.ReadCR3()); !ok {
				want = false
			}
			for i, r := range kept {
				if !slices.Equal(dirs[i], a.v.M.Mem.FrameBytesRO(r)) {
					want = false
				}
			}
			taken := a.v.Stats.RuleAttaches.Load()
			a0 := a.c.Now()
			errA := a.v.RecomputeFrameInfo(a.c, a.d, roots, 1)
			errB := forceRecompute(b.v, b.c, b.d, roots)
			kept = nil
			if errText(errA) != errText(errB) {
				t.Fatalf("rule and walk disagree: %v vs %v", errA, errB)
			}
			if took := a.v.Stats.RuleAttaches.Load() != taken; took != (want && errB == nil) {
				t.Fatalf("attach took the rule: %v, want %v (walk: %v)", took, want && errB == nil, errB)
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
			if a.d.baseHeld != b.d.baseHeld || a.d.baseptr != b.d.baseptr {
				t.Fatalf("base pointers differ: %v %d vs %v %d", a.d.baseHeld, a.d.baseptr, b.d.baseHeld, b.d.baseptr)
			}
			if !forged && a.v.rel != b.v.rel {
				t.Fatalf("tallies differ after an attach: %+v vs %+v", a.v.rel, b.v.rel)
			}
			if errA == nil {
				attached = true
				a.checkTally(t)
			}
		}
	})
}
