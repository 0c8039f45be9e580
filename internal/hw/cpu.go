package hw

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// CPU is one simulated processor. All guest-kernel, VMM and Mercury code
// executes "on" a CPU by charging cycles to its clock and manipulating its
// privileged state. One goroutine at a time executes on a CPU and owns
// its clock (see Clock for who else may read it), and under Machine.Run
// one CPU at a time executes on the host (sched.go); its LAPIC may be
// posted to from any goroutine.
type CPU struct {
	ID int
	M  *Machine

	Clk   *Clock
	TLB   *TLB
	LAPIC *LAPIC

	// Privileged state (§3.2.1). CPL is the current privilege level;
	// CR3 the page-directory frame; IF the hardware interrupt flag.
	CPL uint8
	CR3 PFN
	IF  bool

	// Current code/stack selectors; saved into trap frames on delivery.
	CS, SS Selector

	// Installed descriptor tables ("register" state reloaded by Mercury's
	// state-reloading functions, §5.1.3).
	IDTR *IDT
	GDTR *GDT

	// intrDepth > 0 while executing an interrupt/exception handler;
	// nested delivery is suppressed.
	intrDepth int

	// irqFrame is the frame PollInterrupts delivers in. Nested delivery
	// being suppressed, at most one interrupt's frame is live on a CPU,
	// and no handler keeps its frame past its return.
	irqFrame TrapFrame

	// spinHeld counts held SpinLocks; an interrupt or idle under one panics.
	spinHeld int

	// halted is set while the CPU sits in its idle loop; cross-CPU code
	// may read it.
	halted atomic.Bool

	// Schedule state (sched.go), guarded by M.sched.mu; yieldAt is the
	// clock at which Charge hands the turn on (never outside Run).
	enrolled, waiting bool
	wakeAt            Cycles
	wake              *sync.Cond
	yieldAt           atomic.Uint64

	// irqCol/irqLat cache the interrupt-delivery latency histogram for
	// the installed collector. Only the owning goroutine touches them
	// (PollInterrupts runs on the CPU's driver), so no atomics needed;
	// the disabled path is the machine's one atomic telemetry load.
	irqCol *obs.Collector
	irqLat *obs.Histogram

	// Statistics.
	Stats CPUStats
}

// CPUStats counts notable events on one CPU.
type CPUStats struct {
	Interrupts uint64
	CR3Writes  uint64
	IdleCycles uint64
}

// Charge advances the CPU's clock by n cycles, hands the turn on once
// the clock passes the next-lowest CPU's (sched.go), and gives pending
// interrupts a chance to be delivered. It is the single point through
// which all simulated work flows, so its common path (no hand-over,
// nothing due) takes no lock: one plain add to the owned clock, then
// two compares of the new reading, against yieldAt and against the
// LAPIC's poll word.
func (c *CPU) Charge(n Cycles) {
	if c.Clk.Advance(n) >= c.yieldAt.Load() {
		c.handOver()
	}
	c.PollInterrupts()
}

// Quiet reports whether n more cycles of back-to-back charges would
// hand no turn on and deliver no interrupt: the clock stays below
// yieldAt, and the CPU takes no interrupt (IF clear or inside a
// handler) or the clock stays below the LAPIC's poll word. While it
// holds, one Charge(k*cost) is exactly k Charge(cost) calls with
// nothing between them that charges or reads the clock, so a batch
// whose entries cost n together may charge them once.
func (c *CPU) Quiet(n Cycles) bool {
	end := c.Clk.Read() + n
	return end < c.yieldAt.Load() &&
		(!c.IF || c.intrDepth > 0 || end < c.LAPIC.due.Load())
}

// Now returns the CPU's current cycle count (RDTSC).
func (c *CPU) Now() Cycles { return c.Clk.Read() }

// SetMode changes the current privilege level, reloading CS/SS with the
// matching selectors (user at PL3, kernel otherwise). It returns the
// previous level so callers can restore it. All simulated software uses
// this instead of assigning CPL directly, so interrupt frames always
// capture coherent selectors.
func (c *CPU) SetMode(cpl uint8) (prev uint8) {
	prev = c.CPL
	c.CPL = cpl
	if c.GDTR == nil {
		return prev
	}
	switch {
	case cpl == PL3:
		c.CS = MakeSelector(GDTUserCode, PL3)
		c.SS = MakeSelector(GDTUserData, PL3)
	case c.GDTR.Entries[GDTKernelCode].DPL == cpl:
		c.CS = MakeSelector(GDTKernelCode, cpl)
		c.SS = MakeSelector(GDTKernelData, cpl)
	case c.GDTR.Entries[GDTVMMCode].Present && c.GDTR.Entries[GDTVMMCode].DPL == cpl:
		// The hypervisor's own segments: on a table whose kernel
		// descriptors are deprivileged, PL0 code is the VMM.
		c.CS = MakeSelector(GDTVMMCode, cpl)
		c.SS = MakeSelector(GDTVMMData, cpl)
	default:
		c.CS = MakeSelector(GDTKernelCode, cpl)
		c.SS = MakeSelector(GDTKernelData, cpl)
	}
	return prev
}

// PollInterrupts delivers one pending interrupt if the CPU is accepting
// them: the timer vector once its deadline has passed, else the oldest
// pending vector. Called from Charge and from idle loops. While the
// clock is short of the LAPIC's poll word nothing is due, and it
// returns without touching the LAPIC's lock.
func (c *CPU) PollInterrupts() {
	if !c.IF || c.intrDepth > 0 {
		return
	}
	now := c.Clk.Read()
	if now < c.LAPIC.due.Load() {
		return
	}
	if v, deadline, ok := c.LAPIC.timerDue(now); ok {
		c.observeIRQLatency(now, deadline)
		c.irqFrame = TrapFrame{Vector: v}
		c.deliver(v, &c.irqFrame)
		return
	}
	if v, posted, ok := c.LAPIC.take(); ok {
		if posted > 0 {
			c.observeIRQLatency(now, posted)
		}
		c.irqFrame = TrapFrame{Vector: v}
		c.deliver(v, &c.irqFrame)
	}
}

// observeIRQLatency records the cycles between an interrupt becoming
// deliverable (its LAPIC post, or the armed timer deadline) and the
// poll that delivers it — the delivery-latency jitter a virtualized
// kernel cannot hide (interrupts detour through the VMM's event path).
func (c *CPU) observeIRQLatency(now, since Cycles) {
	col := c.M.Telemetry()
	if col == nil {
		return
	}
	if c.irqCol != col {
		c.irqCol = col
		c.irqLat = col.Registry.Histogram("hw", "irq_delivery_cycles")
	}
	if now >= since {
		c.irqLat.Observe(now - since)
	}
}

// deliver pushes a trap frame and runs the gate handler for vector.
func (c *CPU) deliver(vector int, f *TrapFrame) {
	if c.IDTR == nil {
		panic(fmt.Sprintf("hw: cpu%d interrupt %d with no IDT", c.ID, vector))
	}
	g := c.IDTR.Get(vector)
	if !g.Present {
		panic(fmt.Sprintf("hw: cpu%d interrupt %d: gate not present in %s",
			c.ID, vector, c.IDTR.Name))
	}
	if vector >= 32 && c.spinHeld > 0 {
		panic(fmt.Sprintf("hw: cpu%d interrupt %d delivered with %d spinlock(s) held",
			c.ID, vector, c.spinHeld))
	}
	cost := c.M.Costs.IRQDeliver
	if vector < 32 {
		cost = c.M.Costs.FaultEntry
	}
	c.Clk.Advance(cost)
	c.Stats.Interrupts++

	// Hardware pushes the interrupted context.
	f.Vector = vector
	f.CS = c.CS
	f.SS = c.SS
	f.IF = c.IF

	c.intrDepth++
	c.IF = false // interrupt gates clear IF
	c.SetMode(g.Target)

	g.Handler(c, f)

	// iret: pop the (possibly patched) frame. Mercury's mode switch
	// rewrites f.CS/f.SS RPL bits so the resumed context lands at the
	// right privilege level (§5.1.3).
	c.intrDepth--
	c.Clk.Advance(c.M.Costs.IRQEOI)
	c.checkReturnFrame(f)
	c.CPL = f.CS.RPL()
	c.CS = f.CS
	c.SS = f.SS
	c.IF = f.IF
}

// checkReturnFrame validates that the selectors in a frame about to be
// popped are consistent with the live GDT. Popping a stale selector whose
// RPL does not match the descriptor's DPL raises #GP — the exact hazard
// Mercury's selector-fixup stub exists to prevent (§5.1.2).
func (c *CPU) checkReturnFrame(f *TrapFrame) {
	if c.GDTR == nil {
		return
	}
	idx := f.CS.Index()
	if idx >= len(c.GDTR.Entries) {
		c.RaiseGP(fmt.Sprintf("iret: selector index %d beyond GDT", idx))
		return
	}
	d := c.GDTR.Entries[idx]
	if !d.Present {
		c.RaiseGP("iret: code segment not present")
		return
	}
	// Returning to a privilege level more privileged than the descriptor
	// allows, or popping kernel selectors whose RPL no longer matches the
	// kernel DPL, is a protection violation.
	if idx == GDTKernelCode && f.CS.RPL() != d.DPL {
		c.RaiseGP(fmt.Sprintf("iret: stale kernel selector %v, kernel DPL now %d",
			f.CS, d.DPL))
	}
}

// GPError describes a general protection fault with no registered handler.
type GPError struct{ Reason string }

func (e *GPError) Error() string { return "general protection fault: " + e.Reason }

// RaiseGP raises #GP. If the installed IDT has a handler it is invoked;
// otherwise the simulation panics with a GPError (a triple fault).
func (c *CPU) RaiseGP(reason string) {
	if c.IDTR != nil && c.IDTR.Get(VecGP).Present {
		f := &TrapFrame{Vector: VecGP}
		c.deliverFault(VecGP, f)
		return
	}
	panic(&GPError{Reason: reason})
}

// deliverFault delivers an exception regardless of IF (faults are not
// maskable) but still honors nesting depth bookkeeping.
func (c *CPU) deliverFault(vector int, f *TrapFrame) {
	prevIF := c.IF
	c.IF = true // allow deliver() to run; it will re-clear
	saved := c.intrDepth
	c.intrDepth = 0
	c.deliver(vector, f)
	c.intrDepth = saved
	c.IF = prevIF
}

// --- privileged instructions (sensitive CPU operations, §5.3) ---

// requirePL0 traps to #GP if the CPU is not at PL0. This is the
// de-privileging enforcement: a virtualized kernel at PL1 executing a raw
// privileged instruction lands in the VMM's #GP handler.
func (c *CPU) requirePL0(what string) bool {
	if c.CPL == PL0 {
		return true
	}
	c.RaiseGP(what + " at CPL " + fmt.Sprint(c.CPL))
	return false
}

// WriteCR3 installs a new page-directory base and flushes the TLB.
func (c *CPU) WriteCR3(pfn PFN) {
	c.Charge(c.M.Costs.PrivInsn)
	if !c.requirePL0("mov cr3") {
		return
	}
	c.CR3 = pfn
	c.Stats.CR3Writes++
	c.TLB.Flush()
	c.Clk.Advance(c.M.Costs.TLBFlush)
}

// ReadCR3 returns the current page-directory base (readable at any PL in
// this model; real x86 traps, but no measured path reads CR3 from PL>0).
func (c *CPU) ReadCR3() PFN { return c.CR3 }

// Lidt installs an interrupt descriptor table.
func (c *CPU) Lidt(t *IDT) {
	c.Charge(c.M.Costs.DescTableLoad)
	if !c.requirePL0("lidt") {
		return
	}
	c.IDTR = t
}

// Lgdt installs a global descriptor table and reloads segment selectors.
func (c *CPU) Lgdt(g *GDT) {
	c.Charge(c.M.Costs.DescTableLoad + c.M.Costs.SegReload)
	if !c.requirePL0("lgdt") {
		return
	}
	c.GDTR = g
	c.CS = MakeSelector(GDTKernelCode, c.CPL)
	c.SS = MakeSelector(GDTKernelData, c.CPL)
}

// Cli disables hardware interrupts.
func (c *CPU) Cli() {
	c.Charge(c.M.Costs.PrivInsn)
	if !c.requirePL0("cli") {
		return
	}
	c.IF = false
}

// Sti enables hardware interrupts.
func (c *CPU) Sti() {
	c.Charge(c.M.Costs.PrivInsn)
	if !c.requirePL0("sti") {
		return
	}
	c.IF = true
}

// Invlpg invalidates one TLB entry.
func (c *CPU) Invlpg(va VirtAddr) {
	c.Charge(c.M.Costs.PrivInsn)
	if !c.requirePL0("invlpg") {
		return
	}
	c.TLB.Invalidate(VPNOf(va))
}

// SendIPI posts vector to another CPU's LAPIC.
func (c *CPU) SendIPI(target int, vector int) {
	c.Charge(c.M.Costs.IPISend)
	if !c.requirePL0("apic icr write") {
		return
	}
	if target < 0 || target >= len(c.M.CPUs) || target == c.ID {
		return
	}
	t := c.M.CPUs[target]
	t.LAPIC.Post(c, vector)
	t.LAPIC.IPIsReceived.Add(1)
}

// WakeHalted posts vector from c to the first halted CPU other than c,
// or with all to every one, so an idle CPU rechecks what it waits for:
// Linux's idle kick, and Xen's vcpu_kick.
func (c *CPU) WakeHalted(vector int, all bool) {
	for _, o := range c.M.CPUs {
		if o != c && o.Halted() {
			o.LAPIC.Post(c, vector)
			if !all {
				return
			}
		}
	}
}

// --- memory access through the MMU ---

// AccessResult reports how a memory access resolved.
type AccessResult struct {
	PFN     PFN
	Skipped bool // the faulting instruction was skipped (signal abort)
}

const maxFaultRetries = 8

// Translate resolves va for the given access type, delivering #PF through
// the installed IDT until the mapping is usable. It charges TLB and walk
// costs. The handler (guest kernel or VMM) is expected to repair the
// mapping; if the fault does not resolve after several retries the
// simulation panics, standing in for a kernel oops.
func (c *CPU) Translate(va VirtAddr, write bool) AccessResult {
	user := c.CPL == PL3
	var res AccessResult
	for try := 0; ; try++ {
		vpn := VPNOf(va)
		if pfn, w, u, ok := c.TLB.Lookup(vpn); ok {
			if (!write || w) && (!user || u) {
				c.Charge(c.M.Costs.TLBHit)
				res.PFN = pfn
				return res
			}
			// Permission upgrade needed: fall through to walk so the
			// fault carries fresh PTE state.
			c.TLB.Invalidate(vpn)
		}
		c.Clk.Advance(c.M.Costs.TLBMissWalk)
		wr, ok := Walk(c.M.Mem, c.CR3, va)
		if ok {
			pte := wr.PTE
			permOK := (!write || pte.Writable()) && (!user || pte.UserOK())
			if permOK {
				c.TLB.Insert(vpn, pte.Frame(), pte.Writable(), pte.UserOK(),
					pte.Flags()&PTEGlobal != 0)
				res.PFN = pte.Frame()
				return res
			}
		}
		if try >= maxFaultRetries {
			panic(fmt.Sprintf("hw: cpu%d unresolved page fault at %#x (write=%v user=%v)",
				c.ID, va, write, user))
		}
		f := &TrapFrame{Addr: va, Write: write, User: user}
		c.deliverFault(VecPageFault, f)
		c.Clk.Advance(c.M.Costs.FaultExit)
		if f.Skip {
			res.Skipped = true
			return res
		}
	}
}

// ReadWord reads a 32-bit word at virtual address va.
func (c *CPU) ReadWord(va VirtAddr) uint32 {
	r := c.Translate(va, false)
	if r.Skipped {
		return 0
	}
	c.Charge(c.M.Costs.MemRead)
	return c.M.Mem.ReadWord(r.PFN.Addr() + PhysAddr(va&PageMask&^3))
}

// WriteWord writes a 32-bit word at virtual address va.
func (c *CPU) WriteWord(va VirtAddr, v uint32) {
	r := c.Translate(va, true)
	if r.Skipped {
		return
	}
	c.Charge(c.M.Costs.MemWrite)
	c.M.Mem.WriteWord(r.PFN.Addr()+PhysAddr(va&PageMask&^3), v)
}

// TouchPage simulates bringing one page of working set back after a
// context switch or TLB flush: a translation plus cold cache lines.
func (c *CPU) TouchPage(va VirtAddr) {
	c.Translate(va, false)
	c.Charge(c.M.Costs.TLBRefillPage)
}

// --- idle ---

// IdleUntil halts the CPU until cond holds. Each round waits for the
// next event (halt), delivers one vector, and steps 20 cycles if cond
// is still false; the CPU leaves the runnable set only while it waits.
func (c *CPU) IdleUntil(cond func() bool) {
	if c.spinHeld > 0 {
		panic(fmt.Sprintf("hw: cpu%d idles with %d spinlock(s) held", c.ID, c.spinHeld))
	}
	c.halted.Store(true)
	defer c.halted.Store(false)
	for !cond() {
		c.halt()
		c.PollInterrupts()
		if cond() {
			return
		}
		c.Stats.IdleCycles += 20
		c.Clk.Advance(20)
	}
}

// Halted reports whether the CPU is in its idle loop.
func (c *CPU) Halted() bool { return c.halted.Load() }
