package core

import (
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// SMP mode-switch coordination (§5.4): the control processor (CP, the
// one that received the mode-switch request) notifies the other
// processors with IPIs. Each processor signals readiness by increasing a
// shared count and spins on a shared flag; the CP sets the flag after
// performing the global switch, at which point every AP reloads its own
// per-CPU control state for the new mode and acknowledges completion.
type rendezvousState struct {
	ready    atomic.Int32
	released atomic.Bool
	done     atomic.Int32
	target   atomic.Int32
}

// rendezvous gathers all other CPUs. The returned closure releases them
// after the CP has committed the switch; it blocks until every AP has
// reloaded its local state.
func (mc *Mercury) rendezvous(c *hw.CPU, target Mode) func() {
	n := int32(len(mc.M.CPUs) - 1)
	if n <= 0 {
		return func() {}
	}
	st := &mc.smp
	st.ready.Store(0)
	st.done.Store(0)
	st.released.Store(false)
	st.target.Store(int32(target))

	for _, other := range mc.M.CPUs {
		if other.ID != c.ID {
			c.SendIPI(other.ID, hw.VecModeSwitchAP)
		}
	}
	// Wait for every AP to check in. Each Charge hands the turn to an
	// AP whose clock it passes.
	for st.ready.Load() < n {
		c.Charge(20)
	}
	return func() {
		st.released.Store(true)
		for st.done.Load() < n {
			c.Charge(20)
		}
	}
}

// apRendezvousISR runs on each application processor when the CP's IPI
// arrives: report ready, hold until released, then reload local state.
func (mc *Mercury) apRendezvousISR(c *hw.CPU, f *hw.TrapFrame) {
	st := &mc.smp
	sp := obs.Begin(mc.telCol(), c.ID, c.Now(), "switch/ap-rendezvous")
	c.Charge(mc.M.Costs.IPIDeliver)
	mc.step(c, StepAPPark, Mode(st.target.Load()))
	st.ready.Add(1)
	for !st.released.Load() {
		c.Charge(20) // spin with interrupts off: delivers nothing
	}
	// Local per-CPU reload for the new mode.
	target := Mode(st.target.Load())
	if target == ModeNative {
		c.Lgdt(mc.K.GDT)
		c.Lidt(mc.K.IDT)
	} else {
		c.Lgdt(mc.VMM.GDT)
		c.Lidt(mc.VMM.IDT)
		mc.VMM.SetCurrent(c, mc.Dom)
	}
	c.Charge(mc.M.Costs.StateReload)
	patchFramePL(f, plFor(flip(target)), plFor(target))
	mc.step(c, StepAPResume, target)
	sp.EndArg(c.Now(), uint64(target))
	st.done.Add(1)
}

// plFor maps a mode to its kernel privilege level.
func plFor(m Mode) uint8 {
	if m == ModeNative {
		return hw.PL0
	}
	return hw.PL1
}

// flip returns the mode on the other side of a transition (only the
// kernel PL matters here).
func flip(m Mode) Mode {
	if m == ModeNative {
		return ModePartialVirtual
	}
	return ModeNative
}
