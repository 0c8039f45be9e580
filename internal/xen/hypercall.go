package xen

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
)

// The control-plane hypercalls: trap table registration, context-switch
// assists, scheduling, console I/O and domain control. The MMU family
// lives in mmu.go, event channels in evtchn.go, grants in gnttab.go.

// TrapEntry registers one guest exception handler.
type TrapEntry struct {
	Vector  int
	Handler func(c *hw.CPU, f *hw.TrapFrame)
}

// HypSetTrapTable is set_trap_table: the guest hands the VMM its
// exception entry points so guest-bound traps can be bounced (§5.1.3).
func (v *VMM) HypSetTrapTable(c *hw.CPU, d *Domain, entries []TrapEntry) error {
	defer v.exit(c, d, v.enter(c, d))
	return v.setTrapTable(c, d, entries)
}

// setTrapTable is set_trap_table's body (HypSetTrapTable,
// MCSetTrapTable). Every vector is bounded before any gate is written,
// so a rejected table changes nothing.
func (v *VMM) setTrapTable(c *hw.CPU, d *Domain, entries []TrapEntry) error {
	for _, e := range entries {
		if e.Vector < 0 || e.Vector >= hw.NumVectors {
			return fmt.Errorf("xen: dom%d trap vector %d out of range", d.ID, e.Vector)
		}
	}
	for _, e := range entries {
		c.Charge(v.M.Costs.MemWrite)
		d.SetTrapGate(e.Vector, e.Handler)
	}
	return nil
}

// HypBindVirqTimer binds the virtual timer interrupt to a guest handler.
func (v *VMM) HypBindVirqTimer(c *hw.CPU, d *Domain, h func(c *hw.CPU)) {
	defer v.exit(c, d, v.enter(c, d))
	v.bindVirqTimer(d, h)
}

// bindVirqTimer is bind_virq(VIRQ_TIMER)'s body (HypBindVirqTimer,
// MCBindVirqTimer).
func (v *VMM) bindVirqTimer(d *Domain, h func(c *hw.CPU)) { d.TimerHandler = h }

// HypSetTimer programs the domain's next timer interrupt via the VMM.
func (v *VMM) HypSetTimer(c *hw.CPU, d *Domain, deadline hw.Cycles) {
	defer v.exit(c, d, v.enter(c, d))
	c.LAPIC.ArmTimer(deadline, hw.VecTimer)
}

// HypSchedYield is sched_op(yield).
func (v *VMM) HypSchedYield(c *hw.CPU, d *Domain) {
	defer v.exit(c, d, v.enter(c, d))
	c.Charge(v.M.Costs.DomSwitch)
}

// HypSchedBlock is sched_op(block): the vcpu sleeps until an event is
// pending for it.
func (v *VMM) HypSchedBlock(c *hw.CPU, d *Domain) {
	defer v.exit(c, d, v.enter(c, d))
	c.IdleUntil(func() bool {
		for _, ch := range d.ports {
			if ch.pending {
				return true
			}
		}
		return false
	})
	v.drainPending(c, d)
}

// HypConsoleIO appends to the domain's console buffer.
func (v *VMM) HypConsoleIO(c *hw.CPU, d *Domain, s string) {
	defer v.exit(c, d, v.enter(c, d))
	c.Charge(hw.Cycles(len(s)) * v.M.Costs.MemWrite)
	v.consoleLog = append(v.consoleLog, fmt.Sprintf("dom%d: %s", d.ID, s))
}

// ConsoleLog returns everything written through HypConsoleIO.
func (v *VMM) ConsoleLog() []string { return v.consoleLog }

// HypDomctlCreate creates a new domain; only the driver domain may call
// it (Mercury in partial-virtual mode uses it to host unmodified guests,
// the M-U configuration).
func (v *VMM) HypDomctlCreate(c *hw.CPU, d *Domain, name string, nframes hw.PFN) (*Domain, error) {
	defer v.exit(c, d, v.enter(c, d))
	if !d.Privileged {
		return nil, fmt.Errorf("xen: dom%d is not privileged for domctl", d.ID)
	}
	return v.CreateDomain(name, nframes, false)
}

// HypDomctlCreateFromFrames creates a new domain whose memory is donated
// from the calling driver domain's own partition — the path a
// self-virtualized Mercury host uses to host unmodified guests (the M-U
// configuration), since the machine pool was adopted by the running OS.
func (v *VMM) HypDomctlCreateFromFrames(c *hw.CPU, d *Domain, name string, nframes hw.PFN) (*Domain, error) {
	defer v.exit(c, d, v.enter(c, d))
	if !d.Privileged {
		return nil, fmt.Errorf("xen: dom%d is not privileged for domctl", d.ID)
	}
	part, err := d.Frames.SplitTop(nframes)
	if err != nil {
		return nil, fmt.Errorf("xen: donating dom%d memory: %w", d.ID, err)
	}
	return v.newDomain(name, part, false), nil
}

// HypDomctlDestroy destroys a domain.
func (v *VMM) HypDomctlDestroy(c *hw.CPU, d *Domain, id DomID) error {
	defer v.exit(c, d, v.enter(c, d))
	if !d.Privileged {
		return fmt.Errorf("xen: dom%d is not privileged for domctl", d.ID)
	}
	if takeInjected(&v.injectDestroyFails) {
		return fmt.Errorf("xen: injected transient failure destroying dom%d", id)
	}
	return v.DestroyDomain(id)
}

// HypDomctlPause pauses a domain (used by checkpoint and the
// stop-and-copy phase of live migration).
func (v *VMM) HypDomctlPause(c *hw.CPU, d *Domain, id DomID) error {
	return v.domctlSetState(c, d, id, &v.injectPauseFails, DomPaused, "pausing")
}

// HypDomctlUnpause resumes a paused domain.
func (v *VMM) HypDomctlUnpause(c *hw.CPU, d *Domain, id DomID) error {
	return v.domctlSetState(c, d, id, &v.injectUnpauseFails, DomRunning, "unpausing")
}

// domctlSetState is pause's and unpause's body: a privileged caller
// moves domain id to state st, unless inject holds a pending failure.
func (v *VMM) domctlSetState(c *hw.CPU, d *Domain, id DomID, inject *atomic.Int32, st DomState, verb string) error {
	defer v.exit(c, d, v.enter(c, d))
	if !d.Privileged {
		return fmt.Errorf("xen: dom%d is not privileged for domctl", d.ID)
	}
	if takeInjected(inject) {
		return fmt.Errorf("xen: injected transient failure %s dom%d", verb, id)
	}
	t, ok := v.Domains[id]
	if !ok {
		return fmt.Errorf("xen: %s nonexistent dom%d", verb, id)
	}
	t.State = st
	return nil
}

// HypUpdateDescriptor is update_descriptor: a deprivileged kernel cannot
// write descriptor tables directly, and the VMM validates every update —
// in particular, a guest may never install a descriptor more privileged
// than its own level (DPL < 1), which would be a straight privilege
// escalation.
func (v *VMM) HypUpdateDescriptor(c *hw.CPU, d *Domain, g *hw.GDT, idx int, desc hw.SegDesc) error {
	defer v.exit(c, d, v.enter(c, d))
	if idx <= 0 || idx >= len(g.Entries) {
		return fmt.Errorf("xen: descriptor index %d out of range", idx)
	}
	if desc.Present && desc.DPL < hw.PL1 && desc.Kind != hw.SegNull {
		return fmt.Errorf("xen: dom%d attempted to install a PL%d descriptor",
			d.ID, desc.DPL)
	}
	// The VMM's own descriptors are immutable from guest context.
	if idx == hw.GDTVMMCode || idx == hw.GDTVMMData {
		return fmt.Errorf("xen: dom%d attempted to modify hypervisor descriptor %d",
			d.ID, idx)
	}
	c.Charge(v.M.Costs.MemWrite * 2)
	g.Entries[idx] = desc
	return nil
}
