package core

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/xen"
)

// newMercury builds a Mercury system on a fresh machine.
func newMercury(t *testing.T, ncpu int, policy TrackingPolicy) *Mercury {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: ncpu})
	mc, err := New(Config{Machine: m, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestBootsNativeWithPrecachedVMM(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	if mc.Mode() != ModeNative {
		t.Fatalf("boot mode = %v", mc.Mode())
	}
	if mc.VMM.Active {
		t.Fatal("pre-cached VMM is active at boot")
	}
	// The VMM's footprint is resident (warmed) even though inactive.
	if mc.VMM.Reserved == nil {
		t.Fatal("no reserved VMM memory")
	}
	c := mc.M.BootCPU()
	if c.IDTR != mc.K.IDT {
		t.Fatal("hardware IDT not the kernel's in native mode")
	}
	if mc.K.GDT.Entries[hw.GDTKernelCode].DPL != hw.PL0 {
		t.Fatal("kernel not at PL0 in native mode")
	}
}

func TestRoundTripSwitch(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	if mc.Mode() != ModePartialVirtual {
		t.Fatalf("mode = %v", mc.Mode())
	}
	if !mc.VMM.Active {
		t.Fatal("VMM inactive after attach")
	}
	if c.IDTR != mc.VMM.IDT {
		t.Fatal("hardware IDT not the VMM's after attach")
	}
	if !mc.K.VO().Virtualized() {
		t.Fatal("kernel still using the native object")
	}

	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
	if mc.Mode() != ModeNative || mc.VMM.Active {
		t.Fatal("detach incomplete")
	}
	if c.IDTR != mc.K.IDT {
		t.Fatal("hardware IDT not returned to the kernel")
	}
	if mc.K.VO().Virtualized() {
		t.Fatal("kernel still using the virtual object")
	}
	if mc.Stats.Attaches.Load() != 1 || mc.Stats.Detaches.Load() != 1 {
		t.Fatalf("stats: %d attaches, %d detaches",
			mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load())
	}
}

// TestSwitchPreservesProcessState is the paper's core promise: a mode
// switch does not disturb running applications.
func TestSwitchPreservesProcessState(t *testing.T) {
	for _, policy := range []TrackingPolicy{TrackRecompute, TrackActive} {
		mc := newMercury(t, 1, policy)
		k := mc.K
		boot := mc.M.BootCPU()

		checks := 0
		k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
			// Build state in user memory.
			base := p.Mmap(24, guest.ProtRead|guest.ProtWrite, true)
			c := p.CPU()
			for i := 0; i < 24; i++ {
				c.WriteWord(base+hw.VirtAddr(i<<hw.PageShift), uint32(1000+i))
			}

			if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
				panic(err)
			}
			// Memory intact, and new mappings work through the VMM.
			c = p.CPU()
			for i := 0; i < 24; i++ {
				if got := c.ReadWord(base + hw.VirtAddr(i<<hw.PageShift)); got != uint32(1000+i) {
					panic("memory corrupted by attach")
				}
			}
			b2 := p.Mmap(4, guest.ProtRead|guest.ProtWrite, true)
			p.Touch(b2, 4, true)

			if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
				panic(err)
			}
			c = p.CPU()
			for i := 0; i < 24; i++ {
				if got := c.ReadWord(base + hw.VirtAddr(i<<hw.PageShift)); got != uint32(1000+i) {
					panic("memory corrupted by detach")
				}
			}
			p.Munmap(b2)
			p.Munmap(base)
			checks++
		})
		k.Run(boot)
		if checks != 1 {
			t.Fatalf("policy %v: app did not complete", policy)
		}
	}
}

// TestSwitchFixesSleepingSelectors: a process asleep across the switch
// resumes without a #GP because the stub patched its cached selectors.
func TestSwitchFixesSleepingSelectors(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()

	resumed := false
	k.Spawn(boot, "main", guest.DefaultImage("main"), func(p *guest.Proc) {
		pipe := k.NewPipe()
		p.Fork("sleeper", func(sp *guest.Proc) {
			sp.PipeRead(pipe, 1) // parks with PL0 selectors cached
			resumed = true       // would #GP without the fixup
			sp.Exit(0)
		})
		p.Yield() // let the sleeper park
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if mc.Stats.FixedFrames.Load() == 0 {
			panic("selector fixup did not run")
		}
		p.PipeWrite(pipe, 1) // wake the sleeper in virtual mode
		p.Wait()
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	k.Run(boot)
	if !resumed {
		t.Fatal("sleeper did not resume after the switch")
	}
}

// TestRefcountGateDefers: a switch requested while sensitive code is in
// flight is postponed and retried (§5.1.1).
func TestRefcountGateDefers(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	// Hold the virtualization object open by entering it manually: we
	// simulate an in-flight operation by invoking the ISR directly.
	mc.pending.Store(int32(ModePartialVirtual))
	// Fake a nonzero refcount via a real in-flight op: trigger the ISR
	// from inside a VO call using a posted interrupt.
	mc.pending.Store(-1)

	fired := false
	probe := hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(cc *hw.CPU, f *hw.TrapFrame) {
			if mc.K.VO().Refs() != 0 {
				fired = true
				mc.modeSwitchISR(cc, f)
			}
		}}
	mc.K.IDT.Set(hw.VecDebug, probe)
	mc.pending.Store(int32(ModePartialVirtual))
	c.LAPIC.Post(nil, hw.VecDebug)
	// This VO op's internal charge delivers the probe mid-operation.
	table := mc.K.Frames.Alloc()
	mc.K.VO().WritePTE(c, table, 0, hw.MakePTE(5, hw.PTEPresent))
	if !fired {
		t.Fatal("probe did not observe an in-flight operation")
	}
	if mc.Stats.Deferred.Load() == 0 {
		t.Fatal("switch was not deferred")
	}
	if mc.Mode() != ModeNative {
		t.Fatal("switch committed despite nonzero refcount")
	}
	// The retry timer is armed; idle until the deferred switch lands
	// (the idle loop takes the tick that re-raises the interrupt).
	c.IdleUntil(func() bool { return mc.Mode() == ModePartialVirtual })
	if mc.Mode() != ModePartialVirtual {
		t.Fatal("deferred switch never committed")
	}
}

// TestDetachRefusedWithHostedDomains: the driver domain cannot leave
// while it still hosts guests (§6.3).
func TestDetachRefusedWithHostedDomains(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "hosted", 256)
	if err != nil {
		t.Fatal(err)
	}
	// The failure-resistant switch reports the refusal instead of
	// bringing the system down; the VMM stays attached.
	if err := mc.SwitchSync(c, ModeNative); err == nil {
		t.Fatal("detach with hosted domain did not fail")
	}
	if mc.Mode() != ModePartialVirtual || !mc.VMM.Active {
		t.Fatal("failed detach changed the mode")
	}
	// After the guest is gone, detach succeeds.
	if err := mc.VMM.HypDomctlDestroy(c, mc.Dom, domU.ID); err != nil {
		t.Fatal(err)
	}
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
}

// TestFrameAccountingCleanAfterDetach: the recompute/release cycle is
// an identity on the frame table.
func TestFrameAccountingCleanAfterDetach(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()
	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		base := p.Mmap(16, guest.ProtRead|guest.ProtWrite, true)
		_ = base
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.VMM.FT.CheckInvariants(); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	k.Run(boot)
	// After detach every frame's accounting is zero again.
	for pfn := hw.PFN(0); pfn < mc.M.Mem.NumFrames(); pfn++ {
		fi := mc.VMM.FT.Get(pfn)
		if fi.TypeCount != 0 || fi.TotalRefs != 0 || fi.Pinned {
			t.Fatalf("frame %d retains accounting after detach: %+v", pfn, fi)
		}
	}
}

func TestSMPRendezvousSwitch(t *testing.T) {
	mc := newMercury(t, 2, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()

	done := false
	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
		done = true
	})
	mc.M.Run(k.Run)
	if !done {
		t.Fatal("SMP switch round trip failed")
	}
	// Both CPUs ended with the kernel's tables.
	for _, c := range mc.M.CPUs {
		if c.IDTR != k.IDT {
			t.Fatalf("cpu%d IDT not restored", c.ID)
		}
	}
}

func TestHostUnmodifiedGuest(t *testing.T) {
	// The M-U capability: after self-virtualizing, Mercury hosts an
	// unmodified Xen-Linux guest.
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
		t.Fatal(err)
	}
	domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "domU", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.HostedDomains()) != 1 {
		t.Fatalf("hosted domains = %d", len(mc.HostedDomains()))
	}
	if domU.Privileged {
		t.Fatal("hosted guest is privileged")
	}
	lo, hi := domU.Frames.Range()
	if hi-lo != 1024 {
		t.Fatalf("donated partition = %d frames", hi-lo)
	}
	// The donated frames belong to the new domain now.
	if fi := mc.VMM.FT.Get(lo); fi.Owner != domU.ID {
		t.Fatalf("frame owner = dom%d", fi.Owner)
	}
}

func TestModeStringAndPolicy(t *testing.T) {
	if ModeNative.String() != "native" ||
		ModePartialVirtual.String() != "partial-virtual" ||
		ModeFullVirtual.String() != "full-virtual" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestSwitchToSameModeIsNoop(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
	if mc.Stats.Attaches.Load() != 0 && mc.Stats.Detaches.Load() != 0 {
		t.Fatal("no-op switch did work")
	}
}

func TestFullVirtualMode(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, ModeFullVirtual); err != nil {
		t.Fatal(err)
	}
	if mc.Dom.Privileged {
		t.Fatal("full-virtual domain still privileged")
	}
	if mc.Dom.State != xen.DomRunning {
		t.Fatal("domain not running")
	}
}

// TestPrintkRelocatesAcrossModes: the console path is a sensitive I/O
// operation — serial port in native mode, VMM console in virtual mode —
// and follows the mode switch automatically.
func TestPrintkRelocatesAcrossModes(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()
	k.Spawn(boot, "logger", guest.DefaultImage("logger"), func(p *guest.Proc) {
		p.Printk("native boot message")
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		p.Printk("running on the VMM")
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
		p.Printk("back on bare hardware")
	})
	k.Run(boot)

	serial := mc.M.Serial.Lines()
	if len(serial) != 2 || serial[0] != "native boot message" || serial[1] != "back on bare hardware" {
		t.Fatalf("serial = %q", serial)
	}
	vmmLog := mc.VMM.ConsoleLog()
	if len(vmmLog) != 1 || !strings.Contains(vmmLog[0], "running on the VMM") {
		t.Fatalf("vmm console = %q", vmmLog)
	}
}

func TestParseTrackingPolicy(t *testing.T) {
	for _, p := range []TrackingPolicy{TrackRecompute, TrackActive, TrackJournal} {
		got, err := ParseTrackingPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseTrackingPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, bad := range []string{"", "activ", "Active", "policy3"} {
		if _, err := ParseTrackingPolicy(bad); err == nil {
			t.Errorf("ParseTrackingPolicy(%q) accepted an unknown name", bad)
		}
	}
}
