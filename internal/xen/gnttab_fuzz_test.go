package xen

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/pgtable"
)

// grantFuzzEnv is one FuzzGrant machine: a driver domain and two guests,
// each able to grant any frame to anyone, and a pool of frames the fuzz
// bytes may name: each domain's own, the VMM's, frame 0, frames beyond
// memory, and the directory and L1 of a tree guest1 has pinned, whose
// one entry maps guest1's first pool frame writable.
type grantFuzzEnv struct {
	v    *VMM
	c    *hw.CPU
	doms []*Domain
	pool []hw.PFN
	// start is each valid pool frame's record before any op.
	start map[hw.PFN]FrameInfo
}

func newGrantFuzzEnv(t *testing.T) *grantFuzzEnv {
	t.Helper()
	h, err := BootHost(hw.Config{MemBytes: 20 << 20, NumCPUs: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, v, c := h.M, h.V, h.C
	e := &grantFuzzEnv{v: v, c: c, doms: []*Domain{h.Dom0}}
	for _, name := range []string{"guest1", "guest2"} {
		d, err := v.CreateDomain(name, 16, false)
		if err != nil {
			t.Fatal(err)
		}
		e.doms = append(e.doms, d)
	}
	v.SetCurrent(c, e.doms[1])
	vmmLo, _ := v.Reserved.Range()
	e.pool = []hw.PFN{
		e.doms[0].Frames.Alloc(), e.doms[1].Frames.Alloc(), e.doms[1].Frames.Alloc(),
		e.doms[2].Frames.Alloc(), vmmLo, 0, m.Mem.NumFrames(), 1<<20 - 1, hw.NoPFN,
	}
	tb, err := pgtable.New(m.Mem, e.doms[1].Frames.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x0800_0000
	if err := tb.Map(va, e.pool[1], hw.PTEWrite|hw.PTEUser, e.doms[1].Frames.Alloc,
		pgtable.DirectWriter(m.Mem)); err != nil {
		t.Fatal(err)
	}
	if err := v.HypPinTable(c, e.doms[1], tb.Root); err != nil {
		t.Fatal(err)
	}
	l1, _ := tb.ExistingSlot(va)
	e.pool = append(e.pool, tb.Root, l1.Table)
	e.start = make(map[hw.PFN]FrameInfo)
	for _, pfn := range e.pool {
		if m.Mem.Valid(pfn) {
			e.start[pfn] = v.FT.Get(pfn)
		}
	}
	return e
}

// owner is the model's owner of pfn: the VMM for its reserved frames,
// the domain whose partition holds it, and otherwise DomNone, which
// owns the frames no domain was given.
func (e *grantFuzzEnv) owner(pfn hw.PFN) DomID {
	if lo, hi := e.v.Reserved.Range(); pfn >= lo && pfn < hi {
		return DomVMM
	}
	for _, d := range e.doms {
		if lo, hi := d.Frames.Range(); pfn >= lo && pfn < hi {
			return d.ID
		}
	}
	return DomNone
}

// grantModel is one grant-table entry as the model sees it.
type grantModel struct {
	inUse    bool
	to       DomID
	pfn      hw.PFN
	readonly bool
	mapped   int
}

// grantMapping is one successful map: what it mapped, whether
// writable, its unmap closure, and whether that closure has run.
type grantMapping struct {
	granter  *Domain
	refs     []GrantRef
	pfns     []hw.PFN
	writable bool
	unmap    func()
	live     bool
}

// FuzzGrant drives grant_table_op with hostile arguments: any granter
// ID, any ref (negative included) and any frame: another domain's, the
// VMM's, frame 0, frames past memory and a pinned tree's tables. Each
// byte string decodes into a
// sequence of GrantAccess, GrantMap, GrantMapBatch, unmap (a second
// unmap included) and GrantEnd against a map model; an op byte's top
// bit asks a map for writable access. Nothing may panic; a map
// succeeds exactly when the model says so (the grant is live, granted
// to the mapper, not read-only if the map is writable, names a valid
// frame the granter owns, and, if the map is writable, a frame not
// typed as a page table); a
// batch is all or nothing; GrantEnd refuses while the grant is mapped;
// after every step each pool frame carries its start refs plus one per
// live mapping, its start type refs plus one per live writable
// mapping, and the frame table's invariants hold; once everything is
// unmapped every frame is back to its start record.
func FuzzGrant(f *testing.F) {
	// gnttab_test.go: a guest grants its frame to dom0, which maps it;
	// GrantEnd is refused while mapped; unmap twice; end, then end again.
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 1, 0, 4, 1, 0, 3, 0, 3, 0, 4, 1, 0, 4, 1, 0})
	// gnttab_test.go: four grants, a batch with a bad ref maps nothing,
	// the good batch maps all four, then one unmap releases them.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 2, 1, 0, 1, 0, 2, 1,
		2, 0, 1, 3, 0, 1, 2, 9, 2, 0, 1, 3, 0, 1, 2, 3, 3, 0})
	// hostile_test.go: a grant past memory, of a VMM frame, of dom0's
	// frame in a batch, of frame 0 by dom0; map ref -1; end ref -1.
	f.Add([]byte{0, 1, 0, 6, 0, 1, 0, 1, 0, 0, 1, 0, 4, 0, 1, 0, 1, 1,
		0, 1, 0, 0, 0, 2, 0, 1, 1, 1, 2, 0, 0, 2, 5, 0, 1, 2, 0, 0, 1, 8, 4, 1, 8})
	// A read-only and a writable grant to dom0: a writable map and a
	// writable batch of the read-only one fail, a read map of it and a
	// writable map of the other succeed.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 0, 2, 0, 0x81, 0, 1, 0, 0x82, 0, 1, 1, 1, 0,
		1, 0, 1, 0, 0x81, 0, 1, 1})
	// hostile_test.go: guest1 grants dom0 its pinned L1 and the data
	// frame that L1 maps writable. A writable map of the L1 fails, a
	// read map of it succeeds, a writable map of the data frame
	// succeeds beside the guest's own writable mapping, and a writable
	// batch of both fails; so does a writable map of the directory.
	f.Add([]byte{0, 1, 0, 10, 0, 0, 1, 0, 1, 0, 0x81, 0, 1, 0, 1, 0, 1, 0,
		0x81, 0, 1, 1, 0x82, 0, 1, 1, 1, 0, 0, 1, 0, 9, 0, 0x81, 0, 1, 2,
		3, 0, 3, 1, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newGrantFuzzEnv(t)
		v, c := e.v, e.c
		in := fuzzInput(data)
		model := make(map[*Domain][]grantModel)
		var maps []*grantMapping

		dom := func(b byte) *Domain { return e.doms[int(b)%len(e.doms)] }
		// The IDs a grant may name: the three domains, an ID nobody
		// has, and the VMM's.
		ids := []DomID{e.doms[0].ID, e.doms[1].ID, e.doms[2].ID, 7, DomVMM}
		id := func(b byte) DomID { return ids[int(b)%len(ids)] }
		ref := func(b byte) GrantRef {
			switch b % 10 {
			case 8:
				return -1
			case 9:
				return 1 << 20
			}
			return GrantRef(b % 10)
		}
		// mappable is the model's verdict on mapper mapping (gid, r).
		mappable := func(mapper *Domain, gid DomID, r GrantRef, writable bool) bool {
			g := v.Domains[gid]
			if g == nil || r < 0 || int(r) >= len(model[g]) {
				return false
			}
			m := model[g][r]
			if writable && (m.readonly || e.start[m.pfn].Type > FrameWritable) {
				return false
			}
			return m.inUse && m.to == mapper.ID && v.M.Mem.Valid(m.pfn) && e.owner(m.pfn) == g.ID
		}
		unmap := func(mp *grantMapping) {
			mp.unmap()
			if mp.live {
				mp.live = false
				for _, r := range mp.refs {
					model[mp.granter][r].mapped--
				}
			}
		}
		check := func(step int) {
			t.Helper()
			if err := v.FT.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want := make(map[hw.PFN]FrameInfo)
			for pfn, fi := range e.start {
				want[pfn] = fi
			}
			for _, mp := range maps {
				if mp.live {
					for _, pfn := range mp.pfns {
						fi := want[pfn]
						fi.TotalRefs++
						if mp.writable {
							fi.Type = FrameWritable
							fi.TypeCount++
						}
						want[pfn] = fi
					}
				}
			}
			for pfn, fi := range want {
				if got := v.FT.Get(pfn); got != fi {
					t.Fatalf("step %d: frame %d is %+v, model %+v", step, pfn, got, fi)
				}
			}
			for d, gs := range model {
				for r, m := range gs {
					g := d.grants[r]
					if g.inUse != m.inUse || g.mapped != m.mapped {
						t.Fatalf("step %d: dom%d grant %d is in use %v mapped %d, model %v %d",
							step, d.ID, r, g.inUse, g.mapped, m.inUse, m.mapped)
					}
				}
			}
		}

		for step := 0; step < 64 && len(in) > 0; step++ {
			op := in.next()
			writable := op&0x80 != 0
			switch (op & 0x7f) % 5 {
			case 0: // GrantAccess
				d, to, pfn, ro := dom(in.next()), id(in.next()), e.pool[int(in.next())%len(e.pool)], in.next()&1 == 1
				r := d.GrantAccess(c, to, pfn, ro)
				gs := model[d]
				switch {
				case int(r) == len(gs):
					gs = append(gs, grantModel{})
				case r < 0 || int(r) > len(gs) || gs[r].inUse:
					t.Fatalf("step %d: dom%d handed out ref %d over a live or missing entry", step, d.ID, r)
				}
				gs[r] = grantModel{inUse: true, to: to, pfn: pfn, readonly: ro}
				model[d] = gs
			case 1: // GrantMap
				mapper, gid, r := dom(in.next()), id(in.next()), ref(in.next())
				want := mappable(mapper, gid, r, writable)
				pfn, um, err := v.GrantMap(c, mapper, gid, r, writable)
				if (err == nil) != want {
					t.Fatalf("step %d: dom%d map (writable %v) of dom%d grant %d: err %v, model mappable %v",
						step, mapper.ID, writable, gid, r, err, want)
				}
				if err == nil {
					g := v.Domains[gid]
					if pfn != model[g][r].pfn {
						t.Fatalf("step %d: map returned frame %d, grant names %d", step, pfn, model[g][r].pfn)
					}
					model[g][r].mapped++
					maps = append(maps, &grantMapping{granter: g, refs: []GrantRef{r},
						pfns: []hw.PFN{pfn}, writable: writable, unmap: um, live: true})
				}
			case 2: // GrantMapBatch
				mapper, gid := dom(in.next()), id(in.next())
				refs := make([]GrantRef, 1+int(in.next())%4)
				want := true
				for i := range refs {
					refs[i] = ref(in.next())
					want = want && mappable(mapper, gid, refs[i], writable)
				}
				pfns, um, err := v.GrantMapBatch(c, mapper, gid, refs, writable)
				if (err == nil) != want {
					t.Fatalf("step %d: dom%d batch (writable %v) of dom%d grants %v: err %v, model mappable %v",
						step, mapper.ID, writable, gid, refs, err, want)
				}
				if err == nil {
					g := v.Domains[gid]
					for i, r := range refs {
						if pfns[i] != model[g][r].pfn {
							t.Fatalf("step %d: batch returned frame %d for grant %d, which names %d",
								step, pfns[i], r, model[g][r].pfn)
						}
						model[g][r].mapped++
					}
					maps = append(maps, &grantMapping{granter: g, refs: refs,
						pfns: pfns, writable: writable, unmap: um, live: true})
				}
			case 3: // unmap, possibly a second time
				if b := int(in.next()); len(maps) > 0 {
					unmap(maps[b%len(maps)])
				}
			case 4: // GrantEnd
				d, r := dom(in.next()), ref(in.next())
				gs := model[d]
				want := r >= 0 && int(r) < len(gs) && gs[r].inUse && gs[r].mapped == 0
				err := d.GrantEnd(c, r)
				if (err == nil) != want {
					t.Fatalf("step %d: dom%d GrantEnd(%d): err %v, model allows %v", step, d.ID, r, err, want)
				}
				if err == nil {
					gs[r].inUse = false
				}
			}
			check(step)
		}

		for _, mp := range maps {
			unmap(mp)
			unmap(mp)
		}
		check(-1)
		for pfn, fi := range e.start {
			if got := v.FT.Get(pfn); got != fi {
				t.Fatalf("all unmapped: frame %d is %+v, started as %+v", pfn, got, fi)
			}
		}
	})
}
