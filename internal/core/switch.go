package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// modeSwitchISR is the self-virtualization interrupt handler (§5.1.3):
// it runs uninterruptibly, gates on the virtualization-object reference
// count, coordinates the other processors, applies the state-transfer
// functions and reloads hardware control state, and finally patches the
// interrupt return frame so execution resumes at the new privilege
// level.
func (mc *Mercury) modeSwitchISR(c *hw.CPU, f *hw.TrapFrame) {
	target := Mode(mc.pending.Load())
	if target < 0 || target == mc.Mode() {
		mc.pending.Store(-1)
		return
	}

	h := mc.tel()
	var col *obs.Collector
	if h != nil {
		col = h.col
	}

	// Commit gate: sensitive code must not be in flight (§5.1.1). The
	// kernel would otherwise be left straddling two modes. The retry
	// budget bounds a sensitive section that never drains: past
	// MaxDeferrals the request is abandoned and reported, instead of
	// re-arming forever while SwitchSync spins unbounded.
	mc.step(c, StepGateCheck, target)
	if !CommitGateOpen(mc.K.VO().Refs()) {
		mc.deferSwitch(c, h, target)
		return
	}

	// SMP: bring every other processor to a safe rendezvous point
	// before touching global state (§5.4).
	mc.step(c, StepRendezvousGather, target)
	gsp := obs.Begin(col, c.ID, c.Now(), "switch/rendezvous-gather")
	release := mc.rendezvous(c, target)
	gsp.End(c.Now())

	// Re-check the commit gate now that every other processor is parked:
	// an operation that entered the virtualization object between the
	// first check and the rendezvous IPI is parked mid-operation on an
	// AP, still holding the refcount, and committing under it would land
	// its remaining stores in the wrong mode (under the journal policy,
	// a direct memory write the attached VMM never sees). No new
	// operation can begin while the APs are held, so a zero count here
	// is final. internal/mc proves this mechanically: reverting this
	// recheck (the PR-3 TOCTOU bug, mc.BugTOCTOU) yields a commit with
	// the refcount held within a handful of interleavings.
	mc.step(c, StepGateRecheck, target)
	if !CommitGateOpen(mc.K.VO().Refs()) {
		mc.smp.target.Store(int32(mc.Mode())) // APs reload the old mode
		mc.step(c, StepRendezvousRelease, target)
		release()
		mc.deferSwitch(c, h, target)
		return
	}

	// The root span opens at the same instant the cycle accounting
	// starts, so its duration equals Stats.LastAttachCyc/LastDetachCyc
	// and the phase spans inside attach/detach tile it exactly.
	mc.step(c, StepCommit, target)
	start := c.Now()
	rootName := "switch/attach"
	if target == ModeNative {
		rootName = "switch/detach"
	}
	root := obs.Begin(col, c.ID, start, rootName)
	var err error
	switch {
	case target == ModeNative:
		err = mc.detach(c, f)
		if err == nil {
			end := c.Now()
			mc.Stats.LastDetachCyc.Store(end - start)
			mc.Stats.Detaches.Add(1)
			if h != nil {
				h.detachCyc.Observe(end - start)
			}
		}
	default:
		err = mc.attach(c, f, target)
		if err == nil {
			end := c.Now()
			mc.Stats.LastAttachCyc.Store(end - start)
			mc.Stats.Attaches.Add(1)
			if h != nil {
				h.attachCyc.Observe(end - start)
			}
		}
	}
	if err != nil {
		// Failure-resistant switch (§8 future work, implemented here):
		// attach/detach rolled themselves back; the system keeps running
		// in its previous mode and the failure is reported, not fatal.
		root.EndArg(c.Now(), 1)
		mc.Stats.FailedSwitches.Add(1)
		mc.event(h, obs.EvSwitchFailed, c.Now(), uint64(target), 0)
		mc.setLastError(err)
		mc.smp.target.Store(int32(mc.Mode())) // APs reload the old mode
		mc.pending.Store(-1)
		mc.step(c, StepRendezvousRelease, target)
		rsp := obs.Begin(col, c.ID, c.Now(), "switch/rendezvous-release")
		release()
		rsp.End(c.Now())
		return
	}
	root.EndArg(c.Now(), 0)
	mc.event(h, obs.EvModeSwitch, c.Now(), uint64(target), c.Now()-start)
	mc.setLastError(nil)
	mc.mode.Store(int32(target))
	mc.pending.Store(-1)
	mc.step(c, StepRendezvousRelease, target)
	rsp := obs.Begin(col, c.ID, c.Now(), "switch/rendezvous-release")
	release()
	rsp.End(c.Now())
}

// deferSwitch postpones the pending switch via the §5.1.1 retry timer —
// backing off exponentially (with deterministic seeded jitter) as the
// same request keeps finding sensitive code in flight — or abandons it
// as starved once the retry budget is spent.
func (mc *Mercury) deferSwitch(c *hw.CPU, h *coreObs, target Mode) {
	mc.Stats.Deferred.Add(1)
	if h != nil {
		h.col.Tracer.Instant(c.ID, c.Now(), "switch/deferred", uint64(target))
	}
	mc.event(h, obs.EvSwitchDeferred, c.Now(), uint64(target),
		uint64(mc.deferrals.Load()+1))
	n := mc.deferrals.Add(1)
	if DeferVerdict(n, mc.maxDeferrals) {
		mc.step(c, StepStarve, target)
		mc.Stats.StarvedSwitches.Add(1)
		if h != nil {
			h.col.Tracer.Instant(c.ID, c.Now(), "switch/starved", uint64(target))
		}
		mc.event(h, obs.EvSwitchStarved, c.Now(), uint64(target), uint64(n))
		mc.setLastError(fmt.Errorf(
			"core: switch to %v starved by sensitive code (%d deferrals)",
			target, n))
		mc.deferrals.Store(0)
		mc.pending.Store(-1)
		c.WakeHalted(hw.VecReschedIPI, true) // a requester on another CPU stops waiting
		return
	}
	mc.step(c, StepDeferArm, target)
	// Bounded exponential backoff: a section that drains in one tick
	// retries in one tick; one that keeps refusing is probed ever more
	// rarely (up to BackoffCapMultiple ticks), and the seeded jitter
	// keeps a fleet's retries from beating in lockstep.
	state := mc.backoffRng.Load()
	delay := BackoffDelay(mc.retryTicks, n, &state)
	mc.backoffRng.Store(state)
	mc.event(h, obs.EvSwitchBackoff, c.Now(), delay, uint64(n))
	mc.K.AddTimer(c, c.Now()+delay, func(tc *hw.CPU) {
		mc.step(tc, StepRetryFire, target)
		tc.LAPIC.Post(tc, hw.VecModeSwitch)
	})
}

// attach activates the pre-cached VMM underneath the running kernel
// (native -> partial/full virtual). On failure it rolls the hardware
// and kernel state back so the system keeps running natively.
func (mc *Mercury) attach(c *hw.CPU, f *hw.TrapFrame, target Mode) error {
	k, v := mc.K, mc.VMM
	col := mc.telCol()

	// -- state reloading, part 1 (§5.1.3): the VMM takes over the
	// hardware. Its descriptor tables carry kernel descriptors at PL1.
	ph := obs.Begin(col, c.ID, c.Now(), "phase/state-reload")
	prevPriv := mc.Dom.Privileged
	v.Activate(c)
	v.SetCurrent(c, mc.Dom)
	mc.Dom.State = xen.DomRunning
	mc.Dom.Privileged = target == ModePartialVirtual
	c.Charge(mc.M.Costs.StateReload)
	ph.End(c.Now())

	rollback := func() {
		mc.Dom.Privileged = prevPriv
		v.Deactivate(c)
		v.SetCurrent(c, nil)
		c.Lgdt(k.GDT)
		c.Lidt(k.IDT)
		k.RearmTick(c)
	}

	// -- frame accounting (§5.1.2): under the recompute policy the
	// (stale) table is rebuilt by one walk that scans and pins every live
	// root, charged as if sharded across the CPUs parked at the
	// rendezvous when there is more than one. On one CPU, when the last
	// detach kept its table and only L1 entries have changed since, the
	// kept table is restored, the changed entries replayed and the walk's
	// cycles charged without walking (xen/attach.go). Under the journal
	// policy the table rewinds to the kept epoch on any number of CPUs
	// and only the slots journaled while detached are replayed; under
	// active tracking the table is already valid. A validation failure
	// here means the OS was in an inconsistent state (§8): roll back.
	ph = obs.Begin(col, c.ID, c.Now(), "phase/frame-recompute")
	var ferr error
	switch mc.Policy {
	case TrackRecompute:
		mc.roots = k.AppendLiveRoots(c, mc.roots[:0])
		ferr = v.RecomputeFrameInfo(c, mc.Dom, mc.roots, mc.recomputeWorkers())
	case TrackJournal:
		mc.roots = k.AppendLiveRoots(c, mc.roots[:0])
		ferr = v.JournalReattach(c, mc.Dom, mc.roots, mc.recomputeWorkers())
	}
	if ferr != nil {
		ph.End(c.Now())
		rollback()
		return fmt.Errorf("attach: %w", ferr)
	}
	ph.End(c.Now())

	// -- state transfer (§5.1.2): kernel segments drop to PL1; cached
	// selectors on sleeping threads' kernel stacks are patched; the
	// kernel's trap table and timer move behind the VMM.
	ph = obs.Begin(col, c.ID, c.Now(), "phase/segment-pl-flip")
	k.GDT.SetKernelDPL(hw.PL1)
	mc.fixupSelectors(c, hw.PL0, hw.PL1)
	ph.End(c.Now())
	ph = obs.Begin(col, c.ID, c.Now(), "phase/interrupt-rebind")
	// One multicall registers the trap table and rebinds the virtual
	// timer in a single VMM entry instead of two world switches.
	mc.gates = k.AppendTrapGates(mc.gates[:0])
	mc.rebind.Reset()
	mc.rebind.AddSetTrapTable(mc.gates)
	mc.rebind.AddBindVirqTimer(k.TimerUpcall())
	if err := v.HypMulticall(c, mc.Dom, &mc.rebind); err != nil {
		ph.End(c.Now())
		k.GDT.SetKernelDPL(hw.PL0)
		mc.fixupSelectors(c, hw.PL1, hw.PL0)
		rollback()
		return fmt.Errorf("attach: interrupt rebind: %w", err)
	}
	ph.End(c.Now())

	// -- relocation (§4.2): swap the virtualization object pointer.
	// The interrupted context then resumes deprivileged: kernel-mode
	// frames get their privilege bits patched in the interrupt return
	// stack (§5.1.3).
	ph = obs.Begin(col, c.ID, c.Now(), "phase/vo-relocate")
	k.SetVO(mc.VirtualVO)
	k.RearmTick(c)
	patchFramePL(f, hw.PL0, hw.PL1)
	ph.End(c.Now())
	return nil
}

// detach deactivates the VMM and returns the kernel to bare hardware
// (virtual -> native).
func (mc *Mercury) detach(c *hw.CPU, f *hw.TrapFrame) error {
	k, v := mc.K, mc.VMM
	col := mc.telCol()

	// -- datapath quiesce (§6.3): registered datapaths drain their
	// in-flight I/O, end their grants, and tear down the client domains
	// they serve. Runs before the hosted-domains check so a quiescer
	// that destroys its clients satisfies it; an error aborts the
	// switch and the system keeps running virtual.
	qp := obs.Begin(col, c.ID, c.Now(), "phase/io-quiesce")
	if err := mc.runDetachQuiescers(c); err != nil {
		qp.EndArg(c.Now(), 1)
		return fmt.Errorf("detach: %w", err)
	}
	qp.End(c.Now())

	// A driver domain hosting other live domains cannot leave: they
	// would lose their device path. They must be migrated or destroyed
	// first (§6.3).
	for _, d := range v.Domains {
		if d != mc.Dom && d.State != xen.DomShutdown {
			return fmt.Errorf("detach: dom%d (%s) still hosted", d.ID, d.Name)
		}
	}

	// -- frame accounting: drop the VMM's type/count state. Cheap —
	// this asymmetry is why detach (~0.06 ms) is faster than attach
	// (~0.22 ms) (§7.4). The recompute policy charges one FrameRelease
	// per released directory and per present entry of each released L1,
	// from a running tally, and resets only the touched frames, keeping
	// them for the next attach on one CPU; it walks the trees only where
	// a reset would leave a different table (a live grant map, another
	// domain's pins, an unpinned directory under the base pointer, a
	// forged record). The journal policy keeps the epoch on any number of
	// CPUs for one constant charge and arms the dirty-frame ring.
	ph := obs.Begin(col, c.ID, c.Now(), "phase/frame-release")
	switch mc.Policy {
	case TrackRecompute:
		v.ReleaseFrameInfo(c, mc.Dom)
	case TrackJournal:
		v.JournalDetach(c, mc.Dom)
	}
	ph.End(c.Now())

	// -- state transfer: kernel segments return to PL0; cached
	// selectors on sleeping threads are patched back.
	ph = obs.Begin(col, c.ID, c.Now(), "phase/segment-pl-flip")
	k.GDT.SetKernelDPL(hw.PL0)
	mc.fixupSelectors(c, hw.PL1, hw.PL0)
	ph.End(c.Now())

	// -- state reloading: the kernel re-owns the hardware tables. The
	// handler runs at PL0 (VMM context), so the privileged loads are
	// legal here.
	ph = obs.Begin(col, c.ID, c.Now(), "phase/state-reload")
	v.Deactivate(c)
	v.SetCurrent(c, nil)
	c.Lgdt(k.GDT)
	c.Lidt(k.IDT)
	c.Charge(mc.M.Costs.StateReload)
	ph.End(c.Now())

	// -- relocation: swap the object pointer, re-arm the timer on bare
	// hardware, and repatch the interrupt return frame.
	ph = obs.Begin(col, c.ID, c.Now(), "phase/vo-relocate")
	k.SetVO(mc.NativeVO)
	k.RearmTick(c)
	patchFramePL(f, hw.PL1, hw.PL0)
	ph.End(c.Now())
	return nil
}

// recomputeWorkers returns how many CPUs the attach-time frame
// recompute may shard across: every processor, since the APs are parked
// at the §5.4 rendezvous for the duration of the switch.
func (mc *Mercury) recomputeWorkers() int { return len(mc.M.CPUs) }

// fixupSelectors is the code stub of §5.1.2: it walks every sleeping
// thread's kernel stack and rewrites the privilege bits of cached
// segment selectors from the old kernel PL to the new one. Without it,
// the first descheduled thread to resume would pop stale selectors and
// take a general protection fault.
func (mc *Mercury) fixupSelectors(c *hw.CPU, from, to uint8) {
	mc.sleeping = mc.K.AppendSleepingProcs(c, mc.sleeping[:0])
	for _, p := range mc.sleeping {
		for _, fr := range p.SavedFrames {
			c.Charge(mc.M.Costs.SelectorFixup)
			patchFramePL(fr, from, to)
			mc.Stats.FixedFrames.Add(1)
		}
	}
	clear(mc.sleeping) // hold no exited process past the switch
}

// patchFramePL rewrites kernel selectors in one frame. User-mode frames
// (RPL3) are untouched: user descriptors keep DPL3 in both modes.
func patchFramePL(f *hw.TrapFrame, from, to uint8) {
	if f.CS.Index() == hw.GDTKernelCode && f.CS.RPL() == from {
		f.CS = f.CS.WithRPL(to)
	}
	if f.SS.Index() == hw.GDTKernelData && f.SS.RPL() == from {
		f.SS = f.SS.WithRPL(to)
	}
}
