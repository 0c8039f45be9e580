package vo

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/xen"
)

func nativeEnv() (*hw.Machine, *hw.CPU) {
	m := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCPUs: 1})
	c := m.BootCPU()
	c.Lgdt(hw.NewGDT("k", hw.PL0))
	return m, c
}

func virtualEnv(t *testing.T) (*xen.VMM, *xen.Domain, *hw.CPU) {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.V.CreateDomain("g", hw.PFN(h.M.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	h.V.SetCurrent(h.C, d)
	return h.V, d, h.C
}

func TestDirectWritePTEHitsMemory(t *testing.T) {
	m, c := nativeEnv()
	o := NewDirect(m)
	table := m.Frames.Alloc()
	o.WritePTE(c, table, 5, hw.MakePTE(77, hw.PTEPresent))
	if got := hw.ReadPTE(m.Mem, table, 5); got.Frame() != 77 {
		t.Fatalf("entry = %#x", uint32(got))
	}
	if o.Refs() != 0 {
		t.Fatal("Direct should never hold refs")
	}
}

func TestNativeRefCounting(t *testing.T) {
	m, c := nativeEnv()
	o := NewNative(m)
	// The refcount is only nonzero while an op is in flight; observe it
	// through a fault handler triggered mid-operation.
	var during int64
	idt := hw.NewIDT("k")
	idt.Set(hw.VecTimer, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(cc *hw.CPU, f *hw.TrapFrame) { during = o.Refs() }})
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.Post(nil, hw.VecTimer)
	table := m.Frames.Alloc()
	o.WritePTE(c, table, 0, hw.MakePTE(5, hw.PTEPresent)) // charge delivers
	if during != 1 {
		t.Fatalf("refcount during op = %d, want 1", during)
	}
	if o.Refs() != 0 {
		t.Fatalf("refcount after op = %d", o.Refs())
	}
}

func TestNativeCostsMoreThanDirect(t *testing.T) {
	m, c := nativeEnv()
	dir := NewDirect(m)
	nat := NewNative(m)
	table := m.Frames.Alloc()

	before := c.Now()
	dir.WritePTE(c, table, 0, hw.MakePTE(5, hw.PTEPresent))
	directCost := c.Now() - before

	before = c.Now()
	nat.WritePTE(c, table, 1, hw.MakePTE(6, hw.PTEPresent))
	nativeCost := c.Now() - before

	if nativeCost <= directCost {
		t.Fatalf("native (%d) not dearer than direct (%d)", nativeCost, directCost)
	}
	// But only by the indirection + refcount constant.
	if nativeCost-directCost != m.Costs.VOIndirect+m.Costs.VORefCount {
		t.Fatalf("overhead = %d", nativeCost-directCost)
	}
}

func TestVirtualWritePTEValidates(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	// Build a pinned tree.
	root := d.Frames.Alloc()
	v.M.Mem.ZeroFrame(root)
	o.RegisterRoot(c, root)
	pt := d.Frames.Alloc()
	v.M.Mem.ZeroFrame(pt)
	o.WritePTE(c, root, 0, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	data := d.Frames.Alloc()
	o.WritePTE(c, pt, 0, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))

	if fi := v.FT.Get(data); fi.Type != xen.FrameWritable || fi.TotalRefs != 1 {
		t.Fatalf("data frame accounting: %+v", fi)
	}
	// Illegal update must panic (kernel bug semantics).
	defer func() {
		if recover() == nil {
			t.Fatal("mapping a page table writable did not panic")
		}
	}()
	o.WritePTE(c, pt, 1, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
}

func TestVirtualBatchOneWorldSwitch(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	root := d.Frames.Alloc()
	v.M.Mem.ZeroFrame(root)
	o.RegisterRoot(c, root)
	pt := d.Frames.Alloc()
	v.M.Mem.ZeroFrame(pt)
	o.WritePTE(c, root, 0, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))

	hcBefore := d.Stats.Hypercalls.Load()
	batch := make([]xen.MMUUpdate, 16)
	for i := range batch {
		batch[i] = xen.MMUUpdate{Table: pt, Index: i,
			New: hw.MakePTE(d.Frames.Alloc(), hw.PTEPresent|hw.PTEUser)}
	}
	o.WritePTEBatch(c, batch)
	if got := d.Stats.Hypercalls.Load() - hcBefore; got != 1 {
		t.Fatalf("batch used %d hypercalls, want 1", got)
	}
}

func TestVirtualSetInterruptsIsCheap(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	before := c.Now()
	o.SetInterrupts(c, false)
	o.SetInterrupts(c, true)
	cost := c.Now() - before
	// The paravirtual cli/sti is a shared-memory write, far below a
	// world switch.
	if cost >= v.M.Costs.WorldSwitch {
		t.Fatalf("virtual cli/sti cost %d >= world switch", cost)
	}
	if !d.VCPU0().VIF() {
		t.Fatal("VIF not restored")
	}
}

func TestActiveTrackingMirrors(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 32 << 20, NumCPUs: 1})
	v, err := xen.Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	c := m.BootCPU()
	c.Lgdt(hw.NewGDT("k", hw.PL0))
	d := v.AdoptDomain("os", m.Frames, true)

	o := NewNative(m)
	o.Track = &Tracker{V: v, D: d}

	root := d.Frames.Alloc()
	m.Mem.ZeroFrame(root)
	o.RegisterRoot(c, root)
	pt := d.Frames.Alloc()
	m.Mem.ZeroFrame(pt)
	o.WritePTE(c, root, 0, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite))
	data := d.Frames.Alloc()
	o.WritePTE(c, pt, 3, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite))

	// The VMM is inactive, yet its frame table tracked everything.
	if fi := v.FT.Get(root); fi.Type != xen.FrameL2 || !fi.Pinned {
		t.Fatalf("root not mirrored: %+v", fi)
	}
	if fi := v.FT.Get(data); fi.Type != xen.FrameWritable {
		t.Fatalf("data not mirrored: %+v", fi)
	}
	o.ReleaseRoot(c, root)
	if fi := v.FT.Get(root); fi.TypeCount != 0 {
		t.Fatalf("release not mirrored: %+v", fi)
	}
}

func TestLoadInterruptTableRegistersGates(t *testing.T) {
	v, d, c := virtualEnv(t)
	o := NewVirtual(v, d)
	idt := hw.NewIDT("guest")
	fired := false
	idt.Set(hw.VecPageFault, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(cc *hw.CPU, f *hw.TrapFrame) { fired = true; f.Skip = true }})
	o.LoadInterruptTable(c, idt)
	if !d.TrapGate(hw.VecPageFault).Present {
		t.Fatal("trap table not registered")
	}
	// A hardware fault now bounces into the guest handler.
	c.SetMode(hw.PL1)
	c.Translate(0x1000, false)
	if !fired {
		t.Fatal("fault not bounced to registered handler")
	}
}

// TestVirtualWritePTEInsideHandler: an interrupt handler that stores an
// entry through the object while an outer WritePTE on the same CPU sits
// between its charges leaves the outer store intact, eagerly and in a
// lazy section. The timer vector posts itself again at its first
// delivery (the outer call's prologue), so its second delivery lands
// at the outer call's next charge; that one stores entry 9.
func TestVirtualWritePTEInsideHandler(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		o, c, pt, e := virtualWriteEnv(t)
		deliveries := 0
		o.V.SetGate(hw.VecTimer, hw.Gate{Present: true, Target: hw.PL0,
			Handler: func(cc *hw.CPU, f *hw.TrapFrame) {
				deliveries++
				switch deliveries {
				case 1:
					cc.LAPIC.Post(nil, hw.VecTimer)
				case 2:
					o.WritePTE(cc, pt, 9, e)
				}
			}})
		if lazy {
			o.BeginLazyMMU(c)
		}
		c.IF = true
		c.LAPIC.Post(nil, hw.VecTimer)
		o.WritePTE(c, pt, 8, e)
		c.IF = false
		if lazy {
			o.EndLazyMMU(c)
		}
		if deliveries != 2 {
			t.Fatalf("lazy %v: %d deliveries, want 2", lazy, deliveries)
		}
		for _, idx := range []int{8, 9} {
			if got := hw.ReadPTE(o.V.M.Mem, pt, idx); got != e {
				t.Errorf("lazy %v: entry %d = %#x, want %#x", lazy, idx, uint32(got), uint32(e))
			}
		}
	}
}
