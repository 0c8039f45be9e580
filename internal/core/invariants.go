package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/xen"
)

// CheckInvariants verifies the whole system is in a consistent quiescent
// state for its current mode — the oracle chaos campaigns consult after
// every fault/heal/switch step. It is meant to be called from
// orchestration code (a running process, no switch in flight); a nil
// return means every layer agrees on the mode:
//
//   - engine: no half-committed switch, VO refcount quiesced (§5.1.1);
//   - mode vs. VO vs. VMM activation (§4.2);
//   - per-CPU descriptor-table registers and kernel segment privilege
//     match the mode (§5.1.3);
//   - the VMM's frame accounting is internally consistent, the directory
//     in CR3 is typed L2 while virtual, and the accounting is fully
//     released while native under the recompute policy (§5.1.2);
//   - domain states: the standing identity is running, and a native node
//     hosts no live domains (§6.3);
//   - scheduler integrity and cached selectors on sleeping threads'
//     kernel stacks carry the current kernel privilege level (§5.1.2);
//   - a timer interrupt is armed somewhere (the OS cannot lose its tick);
//   - the kernel's trap table serves every required vector;
//   - no LAPIC has silently dropped a vector.
func (mc *Mercury) CheckInvariants(c *hw.CPU) error {
	mode := mc.Mode()

	// Engine quiescence. The VO refcount may be transiently held by an
	// interrupt handler on another CPU; give it bounded time to drain.
	if p := mc.pending.Load(); p != -1 {
		return fmt.Errorf("invariant: switch to %v still pending", Mode(p))
	}
	drained := false
	for i := 0; i < 10000; i++ {
		if mc.K.VO().Refs() == 0 {
			drained = true
			break
		}
		c.Charge(20)
	}
	if !drained {
		return fmt.Errorf("invariant: VO refcount stuck at %d", mc.K.VO().Refs())
	}

	// Mode vs. virtualization object vs. VMM activation.
	virtual := mode != ModeNative
	if got := mc.K.VO().Virtualized(); got != virtual {
		return fmt.Errorf("invariant: mode %v but VO %q (virtualized=%v)",
			mode, mc.K.VO().Name(), got)
	}
	if mc.VMM.Active != virtual {
		return fmt.Errorf("invariant: mode %v but VMM active=%v", mode, mc.VMM.Active)
	}

	// Per-CPU hardware tables and kernel segment privilege.
	wantGDT, wantIDT := mc.K.GDT, mc.K.IDT
	if virtual {
		wantGDT, wantIDT = mc.VMM.GDT, mc.VMM.IDT
	}
	for _, cpu := range mc.M.CPUs {
		if cpu.GDTR != wantGDT {
			return fmt.Errorf("invariant: cpu%d GDTR is %v in mode %v", cpu.ID, cpu.GDTR, mode)
		}
		if cpu.IDTR != wantIDT {
			return fmt.Errorf("invariant: cpu%d IDTR is %q in mode %v", cpu.ID, cpu.IDTR.Name, mode)
		}
	}
	wantPL := uint8(hw.PL0)
	if virtual {
		wantPL = hw.PL1
	}
	if dpl := mc.K.GDT.Entries[hw.GDTKernelCode].DPL; dpl != wantPL {
		return fmt.Errorf("invariant: kernel code DPL %d in mode %v (want %d)", dpl, mode, wantPL)
	}

	// Frame accounting (§5.1.2).
	if err := mc.VMM.FT.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	if virtual {
		// A directory of the kernel's in CR3 is validated: the base
		// pointer holds a typed ref on it even once the kernel unpins it.
		// (Orchestration before any process ran is still on frame 0.)
		fi := mc.VMM.FT.Get(c.ReadCR3())
		if fi.Owner == mc.Dom.ID && fi.Type != xen.FrameL2 {
			return fmt.Errorf("invariant: cpu%d CR3 directory %d is %s while virtual", c.ID, c.ReadCR3(), fi.Type)
		}
	}
	if !virtual && mc.Policy != TrackActive {
		// Only active tracking keeps a live table (pins included) while
		// native; the recompute and journal detaches leave it empty.
		if pfn, ok := mc.VMM.FT.FirstPinned(); ok {
			return fmt.Errorf("invariant: frame %d still pinned while native", pfn)
		}
	}
	if mc.Policy == TrackJournal {
		j := mc.VMM.Journal()
		if j == nil {
			return fmt.Errorf("invariant: journal policy selected but no journal installed")
		}
		if err := j.CheckConsistent(); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
	}

	// Domain states.
	if mc.Dom.State != xen.DomRunning {
		return fmt.Errorf("invariant: standing domain in state %v", mc.Dom.State)
	}
	if mc.VMM.Domains[mc.Dom.ID] != mc.Dom {
		return fmt.Errorf("invariant: standing domain not registered with the VMM")
	}
	if !virtual {
		for _, d := range mc.HostedDomains() {
			if d.State != xen.DomShutdown {
				return fmt.Errorf("invariant: dom%d (%s) live while native", d.ID, d.Name)
			}
		}
	}

	// Scheduler integrity and cached selectors (§5.1.2): every sleeping
	// thread's saved kernel selectors must carry the current kernel PL.
	if err := mc.K.CheckRunqueue(c); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	kpl := mc.K.KernelPL()
	for _, p := range mc.K.AppendSleepingProcs(c, nil) {
		for _, f := range p.SavedFrames {
			if f.CS.Index() == hw.GDTKernelCode && f.CS.RPL() != kpl {
				return fmt.Errorf("invariant: proc %d (%s) cached CS at RPL %d (kernel at %d)",
					p.Pid, p.Name, f.CS.RPL(), kpl)
			}
			if f.SS.Index() == hw.GDTKernelData && f.SS.RPL() != kpl {
				return fmt.Errorf("invariant: proc %d (%s) cached SS at RPL %d (kernel at %d)",
					p.Pid, p.Name, f.SS.RPL(), kpl)
			}
		}
	}

	// The tick must survive every fault: some CPU has a timer armed.
	armed := false
	for _, cpu := range mc.M.CPUs {
		if _, ok := cpu.LAPIC.NextTimerDeadline(); ok {
			armed = true
			break
		}
	}
	if !armed {
		return fmt.Errorf("invariant: no LAPIC timer armed — the OS lost its tick")
	}

	// Required kernel trap gates.
	for _, vec := range []int{hw.VecPageFault, hw.VecTimer, hw.VecDisk, hw.VecNIC,
		hw.VecReschedIPI, hw.VecModeSwitch, hw.VecModeSwitchAP} {
		if !mc.K.IDT.Get(vec).Present {
			return fmt.Errorf("invariant: kernel IDT gate %d missing", vec)
		}
	}

	// Interrupt delivery: no LAPIC silently dropped a vector.
	for _, cpu := range mc.M.CPUs {
		if n := cpu.LAPIC.DroppedCount(); n != 0 {
			return fmt.Errorf("invariant: cpu%d dropped %d interrupt(s)", cpu.ID, n)
		}
	}
	return nil
}
