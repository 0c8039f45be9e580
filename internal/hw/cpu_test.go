package hw

import (
	"testing"
)

func testMachine(ncpu int) *Machine {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.MemBytes = 16 << 20
	return NewMachine(cfg)
}

func TestChargeAdvancesClock(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	before := c.Now()
	c.Charge(1234)
	if c.Now()-before != 1234 {
		t.Fatalf("charge advanced %d", c.Now()-before)
	}
}

func TestInterruptDelivery(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	idt := NewIDT("k")
	fired := 0
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { fired++ }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.Post(nil, VecTimer)
	c.Charge(10)
	if fired != 1 {
		t.Fatalf("handler fired %d times", fired)
	}
}

func TestInterruptMaskedWhileIFClear(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	idt := NewIDT("k")
	fired := 0
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { fired++ }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.IF = false
	c.LAPIC.Post(nil, VecTimer)
	c.Charge(10)
	if fired != 0 {
		t.Fatal("masked interrupt delivered")
	}
	c.Sti()
	c.Charge(10)
	if fired != 1 {
		t.Fatal("pending interrupt lost after sti")
	}
}

func TestNoNestedDelivery(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	idt := NewIDT("k")
	depth, maxDepth := 0, 0
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
			cc.LAPIC.Post(nil, VecTimer) // would nest if allowed
			cc.Charge(100)
			depth--
		}})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.Post(nil, VecTimer)
	c.Charge(10) // delivers first; second stays pending until handler exits
	c.Charge(10)
	if maxDepth != 1 {
		t.Fatalf("max nesting depth %d", maxDepth)
	}
}

func TestPrivilegedInsnFromPL1Faults(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	gpCount := 0
	idt := NewIDT("vmm")
	idt.Set(VecGP, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { gpCount++ }})
	c.Lgdt(NewGDT("vmm", PL1))
	c.Lidt(idt)
	c.SetMode(PL1)
	c.Cli() // privileged: must trap
	if gpCount != 1 {
		t.Fatalf("cli at PL1 raised %d #GP", gpCount)
	}
}

func TestUnhandledGPPanics(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(NewIDT("k")) // no #GP gate
	c.SetMode(PL1)
	defer func() {
		r := recover()
		if _, ok := r.(*GPError); !ok {
			t.Fatalf("expected GPError, got %v", r)
		}
	}()
	c.WriteCR3(1)
}

func TestTranslateFaultRepairRetry(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	root := m.Frames.Alloc()
	data := m.Frames.Alloc()
	pt := m.Frames.Alloc()
	va := VirtAddr(0x0800_0000)

	faults := 0
	idt := NewIDT("k")
	idt.Set(VecPageFault, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) {
			faults++
			WritePTE(m.Mem, root, PDIndex(va), MakePTE(pt, PTEPresent|PTEWrite|PTEUser))
			WritePTE(m.Mem, pt, PTIndex(va), MakePTE(data, PTEPresent|PTEWrite|PTEUser))
		}})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.CR3 = root

	c.WriteWord(va, 77)
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
	if got := c.ReadWord(va); got != 77 {
		t.Fatalf("read back %d", got)
	}
	// Second access: TLB hit, no fault.
	c.WriteWord(va+4, 88)
	if faults != 1 {
		t.Fatalf("unexpected extra fault (total %d)", faults)
	}
}

func TestTranslateSkipAbortsAccess(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	idt := NewIDT("k")
	idt.Set(VecPageFault, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { f.Skip = true }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.CR3 = m.Frames.Alloc()

	res := c.Translate(0x0900_0000, true)
	if !res.Skipped {
		t.Fatal("skip not propagated")
	}
	// The write completes as a no-op.
	c.WriteWord(0x0900_0000, 5)
}

func TestIPIBetweenCPUs(t *testing.T) {
	m := testMachine(2)
	c0, c1 := m.CPUs[0], m.CPUs[1]
	fired := false
	idt := NewIDT("k")
	idt.Set(VecReschedIPI, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { fired = true }})
	for _, c := range m.CPUs {
		c.Lgdt(NewGDT("k", PL0))
		c.Lidt(idt)
		c.Sti()
	}
	c0.SendIPI(1, VecReschedIPI)
	c1.Charge(10)
	if !fired {
		t.Fatal("IPI not delivered")
	}
	if c1.LAPIC.IPIsReceived.Load() != 1 {
		t.Fatalf("IPIsReceived = %d", c1.LAPIC.IPIsReceived.Load())
	}
}

func TestLAPICTimerFiresAtDeadline(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	fired := false
	idt := NewIDT("k")
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { fired = true }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.ArmTimer(c.Now()+1000, VecTimer)
	c.Charge(500)
	if fired {
		t.Fatal("timer fired early")
	}
	c.Charge(600)
	if !fired {
		t.Fatal("timer did not fire")
	}
}

func TestIdleUntilAdvancesToTimer(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	done := false
	idt := NewIDT("k")
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { done = true }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	start := c.Now()
	deadline := start + 3_000_000
	c.LAPIC.ArmTimer(deadline, VecTimer)
	m.Run(func(c *CPU) { c.IdleUntil(func() bool { return done }) })
	if c.Now() < deadline {
		t.Fatalf("idle returned at %d before deadline %d", c.Now(), deadline)
	}
	if c.Stats.IdleCycles != deadline-start {
		t.Fatalf("idled %d cycles, want a jump of exactly %d to the deadline",
			c.Stats.IdleCycles, deadline-start)
	}
}

func TestSetModeSelectors(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()

	// Native kernel table: kernel at PL0.
	c.Lgdt(NewGDT("k", PL0))
	c.SetMode(PL3)
	if c.CS != MakeSelector(GDTUserCode, PL3) {
		t.Fatalf("user CS = %v", c.CS)
	}
	c.SetMode(PL0)
	if c.CS != MakeSelector(GDTKernelCode, PL0) {
		t.Fatalf("kernel CS = %v", c.CS)
	}

	// VMM table: kernel descriptors at PL1, hypervisor at PL0.
	c.CPL = PL0
	c.Lgdt(NewGDT("vmm", PL1))
	c.SetMode(PL1)
	if c.CS != MakeSelector(GDTKernelCode, PL1) {
		t.Fatalf("deprivileged CS = %v", c.CS)
	}
	c.SetMode(PL0)
	if c.CS != MakeSelector(GDTVMMCode, PL0) {
		t.Fatalf("hypervisor CS = %v", c.CS)
	}
}

func TestStaleSelectorIretFaults(t *testing.T) {
	// The §5.1.2 hazard: an interrupt frame carrying PL0 kernel
	// selectors popped after the kernel descriptors moved to PL1.
	m := testMachine(1)
	c := m.BootCPU()
	g := NewGDT("k", PL0)
	idt := NewIDT("k")
	gpSeen := false
	idt.Set(VecGP, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { gpSeen = true }})
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) {
			// A "mode switch" that forgets the selector fixup.
			g.SetKernelDPL(PL1)
		}})
	c.Lgdt(g)
	c.Lidt(idt)
	c.Sti()
	c.LAPIC.Post(nil, VecTimer)
	c.Charge(10)
	if !gpSeen {
		t.Fatal("stale selector iret did not fault")
	}
}

// BenchmarkCharge measures Charge's common path: a charge that hands no
// turn on and finds nothing to deliver.
func BenchmarkCharge(b *testing.B) {
	for _, bc := range []struct {
		name  string
		setup func(c *CPU)
	}{
		{"timer-armed", func(c *CPU) {
			c.Sti()
			c.LAPIC.ArmTimer(never-1, VecTimer)
		}},
		{"masked", func(c *CPU) { c.Cli() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := testMachine(1).BootCPU()
			idt := NewIDT("k")
			idt.Set(VecTimer, Gate{Present: true, Target: PL0,
				Handler: func(*CPU, *TrapFrame) { b.Fatal("timer fired") }})
			c.Lgdt(NewGDT("k", PL0))
			c.Lidt(idt)
			bc.setup(c)
			b.ResetTimer()
			for range b.N {
				c.Charge(1)
			}
		})
	}
}
