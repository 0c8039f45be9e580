package xen

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/pgtable"
)

// TestMMUUpdateIndexOutOfRange: an entry index outside [0, PTEntries)
// is refused on every path that applies an mmu_update — the hypercall,
// the multicall op, trap-and-emulate and the active-tracking mirror —
// and nothing is written to the named table or the frames beside it.
func TestMMUUpdateIndexOutOfRange(t *testing.T) {
	v, d, c := testVMM(t)
	tb, data := buildTree(t, v, d, 2)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	s, _ := tb.ExistingSlot(0x0800_0000)
	// A store every path would accept at a valid index.
	leaf := hw.MakePTE(data[0], hw.PTEPresent|hw.PTEUser)

	paths := map[string]func(u MMUUpdate) error{
		"mmu_update": func(u MMUUpdate) error { return v.HypMMUUpdate(c, d, []MMUUpdate{u}) },
		"multicall": func(u MMUUpdate) error {
			var mc Multicall
			mc.AddUpdates([]MMUUpdate{u})
			return v.HypMulticall(c, d, &mc)
		},
		"emulate": func(u MMUUpdate) error { return v.EmulatePTEWrite(c, d, u) },
		"mirror":  func(u MMUUpdate) error { return v.MirrorPTEWrite(c, d, u) },
	}
	for name, apply := range paths {
		for _, table := range []hw.PFN{s.Table, tb.Root} {
			for _, idx := range []int{-1, hw.PTEntries, 1 << 20} {
				frames := []hw.PFN{table - 1, table, table + 1}
				var before [][]byte
				for _, pfn := range frames {
					before = append(before, bytes.Clone(v.M.Mem.FrameBytesRO(pfn)))
				}
				ft := v.FT.Clone()
				if err := apply(MMUUpdate{Table: table, Index: idx, New: leaf}); err == nil {
					t.Errorf("%s: table %d index %d accepted", name, table, idx)
				}
				for i, pfn := range frames {
					if !bytes.Equal(v.M.Mem.FrameBytesRO(pfn), before[i]) {
						t.Errorf("%s: table %d index %d wrote frame %d", name, table, idx, pfn)
					}
				}
				if err := v.FT.Equal(ft); err != nil {
					t.Errorf("%s: table %d index %d: %v", name, table, idx, err)
				}
			}
		}
	}
}

// TestHostileNumbersRejected: frame numbers, vectors, ports and grant
// refs a guest supplies out of range, or naming a frame it does not
// own (granted frames included), and writable grant maps of a live page
// table return an error instead of panicking the VMM, and leave the
// frame table and the trap table as they were.
func TestHostileNumbersRejected(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	tb, _ := buildTree(t, v, dU, 2)
	if err := v.HypPinTable(c, dU, tb.Root); err != nil {
		t.Fatal(err)
	}
	beyond := v.M.Mem.NumFrames()
	vmmLo, _ := v.Reserved.Range()
	foreign := d0.Frames.Alloc()
	// A directory whose one entry reaches past the end of memory.
	badDir := dU.Frames.Alloc()
	hw.WritePTE(v.M.Mem, badDir, 3, hw.MakePTE(beyond+5, hw.PTEPresent|hw.PTEUser))
	// A tree whose L1 maps the VMM's first reserved frame writable.
	vmmTree, err := pgtable.New(v.M.Mem, dU.Frames.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := vmmTree.Map(0x0800_0000, vmmLo, hw.PTEWrite|hw.PTEUser, dU.Frames.Alloc,
		pgtable.DirectWriter(v.M.Mem)); err != nil {
		t.Fatal(err)
	}
	// The directory in CR3, unpinned by the guest (the base pointer
	// keeps it typed), and a tree whose L1 maps that directory writable.
	cr3Tree, _ := buildTree(t, v, dU, 1)
	if err := v.HypNewBaseptr(c, dU, cr3Tree.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.HypUnpinTable(c, dU, cr3Tree.Root); err != nil {
		t.Fatal(err)
	}
	aliasTree, err := pgtable.New(v.M.Mem, dU.Frames.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := aliasTree.Map(0x0800_0000, cr3Tree.Root, hw.PTEWrite|hw.PTEUser, dU.Frames.Alloc,
		pgtable.DirectWriter(v.M.Mem)); err != nil {
		t.Fatal(err)
	}
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	badGrant := dU.GrantAccess(c, d0.ID, 1<<30, false)
	vmmGrant := dU.GrantAccess(c, d0.ID, vmmLo, false)
	foreignGrant := dU.GrantAccess(c, d0.ID, foreign, false)
	ownGrant := dU.GrantAccess(c, d0.ID, dU.Frames.Alloc(), false)
	roGrant := dU.GrantAccess(c, d0.ID, dU.Frames.Alloc(), true)
	// The L1 of the pinned tree, granted with write access: mapping it
	// writable would let the backend rewrite a live page table.
	l1, _ := tb.ExistingSlot(0x0800_0000)
	l1Grant := dU.GrantAccess(c, d0.ID, l1.Table, false)
	// Frame 0 was never given to a domain, so it is not dom0's to grant.
	zeroGrant := d0.GrantAccess(c, dU.ID, 0, false)
	nop := func(*hw.CPU, *hw.TrapFrame) {}
	multicall := func(add func(*Multicall)) error {
		var mc Multicall
		add(&mc)
		return v.HypMulticall(c, dU, &mc)
	}

	cases := []struct {
		name string
		call func() error
	}{
		{"pin beyond memory", func() error { return v.HypPinTable(c, dU, 1<<30) }},
		{"pin at the end of memory", func() error { return v.HypPinTable(c, dU, beyond) }},
		{"new_baseptr beyond memory", func() error { return v.HypNewBaseptr(c, dU, 1<<30) }},
		{"mmu_update table beyond memory", func() error {
			return v.HypMMUUpdate(c, dU, []MMUUpdate{{Table: 1 << 30, Index: 0}})
		}},
		{"L2 update to an L1 beyond memory", func() error {
			return v.HypMMUUpdate(c, dU, []MMUUpdate{{Table: tb.Root, Index: 100,
				New: hw.MakePTE(beyond+5, hw.PTEPresent|hw.PTEUser)}})
		}},
		{"walked directory entry beyond memory", func() error { return v.HypPinTable(c, dU, badDir) }},
		{"pin a VMM frame", func() error { return v.HypPinTable(c, dU, vmmLo) }},
		{"pin a tree whose L1 maps a VMM frame writable", func() error { return v.HypPinTable(c, dU, vmmTree.Root) }},
		{"pin a foreign frame", func() error { return v.HypPinTable(c, dU, foreign) }},
		{"pin a tree whose L1 maps the unpinned directory in CR3 writable", func() error {
			return v.HypPinTable(c, dU, aliasTree.Root)
		}},
		{"L2 update to a foreign L1", func() error {
			return v.HypMMUUpdate(c, dU, []MMUUpdate{{Table: tb.Root, Index: 100,
				New: hw.MakePTE(foreign, hw.PTEPresent|hw.PTEUser)}})
		}},
		{"multicall pin beyond memory", func() error {
			return multicall(func(mc *Multicall) { mc.AddPin(1 << 30) })
		}},
		{"set_trap_table vector -1", func() error {
			return v.HypSetTrapTable(c, dU, []TrapEntry{{Vector: 3, Handler: nop}, {Vector: -1, Handler: nop}})
		}},
		{"multicall set_trap_table vector 300", func() error {
			return multicall(func(mc *Multicall) {
				mc.AddSetTrapTable([]TrapEntry{{Vector: 3, Handler: nop}, {Vector: 300, Handler: nop}})
			})
		}},
		{"send on port -1", func() error { return v.EvtchnSend(c, dU, -1) }},
		{"multicall send on port -1", func() error {
			return multicall(func(mc *Multicall) { mc.AddEvtchnSend(-1) })
		}},
		{"send on an unbound port", func() error { return v.EvtchnSend(c, dU, pU+1) }},
		{"bind to port -1", func() error {
			_, err := v.EvtchnBindInterdomain(c, dU, d0.ID, -1)
			return err
		}},
		{"grant map ref -1", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, -1, false)
			return err
		}},
		{"grant map of a frame beyond memory", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, badGrant, false)
			return err
		}},
		{"grant batch of a frame beyond memory", func() error {
			_, _, err := v.GrantMapBatch(c, d0, dU.ID, []GrantRef{badGrant}, false)
			return err
		}},
		{"grant map of a VMM frame", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, vmmGrant, false)
			return err
		}},
		{"grant map of a foreign frame", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, foreignGrant, false)
			return err
		}},
		{"grant batch of a VMM frame", func() error {
			_, _, err := v.GrantMapBatch(c, d0, dU.ID, []GrantRef{ownGrant, vmmGrant}, false)
			return err
		}},
		{"grant batch of a foreign frame", func() error {
			_, _, err := v.GrantMapBatch(c, d0, dU.ID, []GrantRef{ownGrant, foreignGrant}, false)
			return err
		}},
		{"writable grant map of a read-only grant", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, roGrant, true)
			return err
		}},
		{"writable grant batch with a read-only grant", func() error {
			_, _, err := v.GrantMapBatch(c, d0, dU.ID, []GrantRef{ownGrant, roGrant}, true)
			return err
		}},
		{"writable grant map of a pinned L1", func() error {
			_, _, err := v.GrantMap(c, d0, dU.ID, l1Grant, true)
			return err
		}},
		{"writable grant batch with a pinned L1", func() error {
			_, _, err := v.GrantMapBatch(c, d0, dU.ID, []GrantRef{ownGrant, l1Grant}, true)
			return err
		}},
		{"grant map of frame 0 granted by dom0", func() error {
			_, _, err := v.GrantMap(c, dU, d0.ID, zeroGrant, false)
			return err
		}},
		{"grant end ref -1", func() error { return dU.GrantEnd(c, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := v.FT.Clone()
			var traps [hw.NumVectors]GuestGate
			for vec := range traps {
				traps[vec] = dU.TrapGate(vec)
			}
			if err := tc.call(); err == nil {
				t.Fatal("accepted")
			}
			if err := v.FT.Equal(ft); err != nil {
				t.Fatal(err)
			}
			if err := v.FT.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for vec := range traps {
				if dU.TrapGate(vec).Present != traps[vec].Present {
					t.Fatalf("trap vector %d changed", vec)
				}
			}
		})
	}
}

// TestHypercallPrologueAllocFree is the prologue's allocation gate:
// hypercalls that do no work of their own on the heap allocate nothing,
// with a collector installed and without.
func TestHypercallPrologueAllocFree(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	d0.SetPortHandler(p0, func(*hw.CPU) {})
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	traps := []TrapEntry{{Vector: hw.VecGP, Handler: func(*hw.CPU, *hw.TrapFrame) {}}}
	calls := map[string]func(){
		"HypSetTimer": func() { v.HypSetTimer(c, dU, c.Now()+1<<40) },
		"HypSetTrapTable": func() {
			if err := v.HypSetTrapTable(c, dU, traps); err != nil {
				panic(err)
			}
		},
		"EvtchnSend": func() {
			if err := v.EvtchnSend(c, dU, pU); err != nil {
				panic(err)
			}
		},
	}
	for _, col := range []*obs.Collector{nil, obs.New(1)} {
		v.M.SetTelemetry(col)
		for name, call := range calls {
			if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
				t.Errorf("%s (collector %v) allocates %.0f per call", name, col != nil, allocs)
			}
		}
	}
}
