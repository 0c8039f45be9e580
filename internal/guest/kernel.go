package guest

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/pgtable"
	"repro/internal/vo"
	"repro/internal/xen"
)

// Config selects how the kernel is built and bound.
type Config struct {
	// Name labels the kernel instance in diagnostics.
	Name string
	// VO is the initial virtualization object (nil means Direct — an
	// unmodified native kernel).
	VO vo.Object
	// Frames is the kernel's physical memory partition.
	Frames *hw.FrameAllocator
	// Dom is the domain this kernel runs in, when it boots on a VMM.
	Dom *xen.Domain
	// VMM is set alongside Dom.
	VMM *xen.VMM
	// ServiceOnly marks a kernel that only provides driver-domain
	// services (backends) and never runs its own scheduler or timer
	// tick — the passive dom0 of the X-U and M-U configurations.
	ServiceOnly bool
	// LazyMMU enables lazy-MMU batching: the MMU-heavy paths (fork's
	// entry stream, munmap's zap, mprotect, exit_mmap) open a lazy
	// section so a virtualized kernel pays one multicall per storm
	// instead of one hypercall per entry. Off by default — the Table 1
	// reproduction measures the unbatched per-entry stream.
	LazyMMU bool
}

// DefaultHzTicks is the 100 Hz timer frequency used in the evaluation.
const DefaultHzTicks = 100

// Kernel is one running operating system instance.
type Kernel struct {
	Name string
	M    *hw.Machine

	// obj is the current virtualization object; Mercury swaps it during
	// a mode switch. Access through VO()/SetVO, which keeps in holders
	// every holder it has made.
	obj       atomic.Pointer[voHolder]
	holdersMu sync.Mutex
	holders   []*voHolder

	Frames *hw.FrameAllocator
	Dom    *xen.Domain
	VMM    *xen.VMM

	// IDT is the kernel's own trap table (installed directly in native
	// mode, registered with the VMM in virtual mode).
	IDT *hw.IDT
	// GDT is the kernel's descriptor table for native mode.
	GDT *hw.GDT

	// lk is the big kernel lock guarding scheduler and process state.
	// Sections run with interrupts masked, so a tick or IPI never lands
	// in one and re-enters it; waiters spin with their clocks advancing.
	lk      hw.SpinLock
	procs   map[Pid]*Proc
	nextPid Pid
	runq    []*Proc
	cur     []*Proc // per physical CPU
	nlive   atomic.Int64

	// retired holds, per physical CPU, the tables of address spaces that
	// exited under a VMM while that CPU's CR3 still held their root. They
	// are freed once the CPU loads another root, as Linux drops a dead mm
	// only after switching away from it: the VMM keeps the installed
	// directory typed until then, so its frames must not be reused
	// before. Natively nothing types them, and they are freed at once.
	retired [][]*pgtable.Tables

	// mmuBatch holds, per physical CPU, Mprotect's update batch, grown
	// to the largest call and reused. A process gives up its CPU only at
	// a block, a Work reschedule or an exit, never inside Mprotect, and
	// no WritePTEBatch keeps the slice.
	mmuBatch [][]xen.MMUUpdate

	needResched atomic.Bool

	// pageRefs counts sharers of anonymous/COW frames.
	pageRefs map[hw.PFN]int
	pagesMu  sync.Mutex

	FS  *FS
	Blk BlockDriver
	Net NetDriver

	timers *timerWheel

	// timerUpcall is timerTick as a func value, made once at boot.
	timerUpcall func(c *hw.CPU)

	// LazyMMU mirrors Config.LazyMMU.
	LazyMMU bool

	// netID is this kernel's link-layer address.
	netID byte
	// netRx is the local inbound frame queue (filled by the NIC ISR).
	netRx     []Frame
	netRxWait waitQueue

	// rxHook, when set, filters inbound NIC frames before local
	// delivery; the net backend uses it to route domU-bound frames.
	rxHook func(c *hw.CPU, data []byte) bool

	Stats KernelStats
}

// KernelStats aggregates kernel-level counters.
type KernelStats struct {
	Forks       atomic.Uint64
	CtxSwitches atomic.Uint64
	Syscalls    atomic.Uint64
	PageFaults  atomic.Uint64
	Ticks       atomic.Uint64
}

// voHolder exists because atomic.Pointer needs a concrete type.
type voHolder struct{ o vo.Object }

// VO returns the kernel's current virtualization object.
func (k *Kernel) VO() vo.Object { return k.obj.Load().o }

// SetVO swaps the virtualization object (Mercury's relocation step).
// Mode switches alternate between the same two objects, so each
// object's holder is made once and reused.
func (k *Kernel) SetVO(o vo.Object) {
	k.holdersMu.Lock()
	defer k.holdersMu.Unlock()
	for _, h := range k.holders {
		if h.o == o {
			k.obj.Store(h)
			return
		}
	}
	h := &voHolder{o: o}
	k.holders = append(k.holders, h)
	k.obj.Store(h)
}

// Boot builds a kernel on m and installs its control state through the
// configured virtualization object.
func Boot(m *hw.Machine, cfg Config) (*Kernel, error) {
	if cfg.Frames == nil {
		return nil, fmt.Errorf("guest: Boot requires a frame partition")
	}
	k := &Kernel{
		Name:     cfg.Name,
		M:        m,
		Frames:   cfg.Frames,
		Dom:      cfg.Dom,
		VMM:      cfg.VMM,
		procs:    make(map[Pid]*Proc),
		nextPid:  1,
		cur:      make([]*Proc, len(m.CPUs)),
		retired:  make([][]*pgtable.Tables, len(m.CPUs)),
		mmuBatch: make([][]xen.MMUUpdate, len(m.CPUs)),
		pageRefs: make(map[hw.PFN]int),
		LazyMMU:  cfg.LazyMMU,
	}
	if cfg.VO == nil {
		cfg.VO = vo.NewDirect(m)
	}
	k.SetVO(cfg.VO)
	k.timerUpcall = k.timerTick
	k.timers = newTimerWheel(k)
	k.FS = NewFS(k)

	// Build descriptor tables. The kernel's own GDT carries the kernel
	// descriptors at the privilege level the current mode dictates.
	dpl := uint8(hw.PL0)
	if cfg.VO.Virtualized() {
		dpl = hw.PL1
	}
	k.GDT = hw.NewGDT(cfg.Name, dpl)
	k.IDT = hw.NewIDT(cfg.Name)
	k.installTraps()

	c := m.BootCPU()
	if !cfg.VO.Virtualized() {
		// Native boot: own the hardware tables, and bring up the
		// application processors with the same control state.
		c.Lgdt(k.GDT)
		for _, ap := range m.CPUs[1:] {
			ap.Lgdt(k.GDT)
			ap.Lidt(k.IDT)
			ap.IF = true
		}
	}
	k.VO().LoadInterruptTable(c, k.IDT)
	// Bind the device interrupt lines to the boot CPU. Which software
	// receives the vectors is decided by whichever IDT is installed —
	// the kernel's in native mode, the VMM's (which forwards to the
	// driver domain) in virtual mode.
	m.IOAPIC.Route(hw.IRQLineDisk, c.ID, hw.VecDisk)
	m.IOAPIC.Route(hw.IRQLineNIC, c.ID, hw.VecNIC)
	if k.Dom != nil && !cfg.ServiceOnly {
		k.VMM.HypBindVirqTimer(c, k.Dom, k.timerUpcall)
	}
	k.VO().SetInterrupts(c, true)
	if !cfg.ServiceOnly {
		k.armTick(c)
	}
	return k, nil
}

// KernelPL returns the privilege level kernel code currently runs at.
func (k *Kernel) KernelPL() uint8 {
	if k.VO().Virtualized() {
		return hw.PL1
	}
	return hw.PL0
}

// installTraps populates the kernel IDT.
func (k *Kernel) installTraps() {
	k.IDT.Set(hw.VecPageFault, hw.Gate{Present: true, Target: hw.PL0,
		Handler: k.pageFault})
	k.IDT.Set(hw.VecTimer, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) { k.timerTick(c) }})
	k.IDT.Set(hw.VecDisk, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			c.Charge(k.M.Costs.MemRead) // completion bookkeeping
		}})
	k.IDT.Set(hw.VecNIC, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) { k.nicISR(c) }})
	k.IDT.Set(hw.VecReschedIPI, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			if k.cur[c.ID] != nil { // an idle CPU only needed waking
				k.needResched.Store(true)
			}
		}})
}

// armTick programs the next periodic timer interrupt.
func (k *Kernel) armTick(c *hw.CPU) {
	period := k.M.Hz / DefaultHzTicks
	k.VO().ArmTimer(c, c.Now()+period)
}

// timerTick is the 100 Hz tick: run due kernel timers, re-arm, and ask
// for a reschedule.
func (k *Kernel) timerTick(c *hw.CPU) {
	k.Stats.Ticks.Add(1)
	c.Charge(k.M.Costs.MemRead * 8) // jiffies, process accounting
	k.timers.run(c)
	k.needResched.Store(true)
	k.armTick(c)
}

// --- kernel lock ---

// acquire takes the big kernel lock, charging the acquisition; a
// contended one costs extra, which is where the SMP rows of Table 2 get
// their latency. Release with k.lk.Unlock.
func (k *Kernel) acquire(c *hw.CPU) {
	cost := k.M.Costs.LockAcquire
	if k.lk.Lock(c) {
		cost += k.M.Costs.LockContended
	}
	c.Charge(cost)
}

// --- page reference counting (COW sharing) ---

// refPage increments the sharer count of pfn (1 on first use).
func (k *Kernel) refPage(pfn hw.PFN) {
	k.pagesMu.Lock()
	k.pageRefs[pfn]++
	k.pagesMu.Unlock()
}

// unrefPage decrements the count and frees the frame on last use.
func (k *Kernel) unrefPage(pfn hw.PFN) {
	k.pagesMu.Lock()
	n := k.pageRefs[pfn] - 1
	if n < 0 {
		k.pagesMu.Unlock()
		panic(fmt.Sprintf("guest: unref of unreferenced frame %d", pfn))
	}
	if n == 0 {
		delete(k.pageRefs, pfn)
		k.pagesMu.Unlock()
		k.Frames.Free(pfn)
		return
	}
	k.pageRefs[pfn] = n
	k.pagesMu.Unlock()
}

// ReleasePage drops one reference on a frame (exported for cache
// eviction by harness code; pairs with FS.DropCache).
func (k *Kernel) ReleasePage(pfn hw.PFN) { k.unrefPage(pfn) }

// pageRefCount reports the sharer count (for COW decisions and tests).
func (k *Kernel) pageRefCount(pfn hw.PFN) int {
	k.pagesMu.Lock()
	defer k.pagesMu.Unlock()
	return k.pageRefs[pfn]
}

// allocFrame takes a frame from the kernel's partition and charges the
// zeroing cost when zero is set.
func (k *Kernel) allocFrame(c *hw.CPU, zero bool) hw.PFN {
	pfn := k.Frames.Alloc()
	if pfn == hw.NoPFN {
		panic("guest: out of physical memory")
	}
	if zero {
		k.M.Mem.ZeroFrame(pfn)
		c.Charge(k.M.Costs.PageZero)
	}
	return pfn
}

// voWriter returns a writer routing stores through the current
// virtualization object (for live trees). The page-table walker
// re-reads the entry it just wrote (a structural PDE store installs
// the table the next step descends into), so inside a lazy-MMU section
// the deferred store must land before the writer returns.
func (k *Kernel) voWriter(c *hw.CPU) pgtable.WriteFn {
	return func(table hw.PFN, idx int, e hw.PTE) {
		o := k.VO()
		o.WritePTE(c, table, idx, e)
		o.FlushLazyMMU(c)
	}
}

// lazyBegin opens a lazy-MMU section around an MMU-heavy path when
// batching is enabled. The section's reference (held by the VO) also
// keeps a mode switch from committing mid-storm.
func (k *Kernel) lazyBegin(c *hw.CPU) {
	if k.LazyMMU {
		k.VO().BeginLazyMMU(c)
	}
}

// lazyEnd closes the section, draining any deferred operations.
func (k *Kernel) lazyEnd(c *hw.CPU) {
	if k.LazyMMU {
		k.VO().EndLazyMMU(c)
	}
}

// validateResumeFrame checks a popped saved frame against the live GDT,
// as the hardware iret microcode would: stale kernel selectors raise #GP.
func (k *Kernel) validateResumeFrame(c *hw.CPU, f *hw.TrapFrame) {
	g := c.GDTR
	if g == nil {
		return
	}
	c.Charge(k.M.Costs.SegReload)
	d := g.Entries[f.CS.Index()]
	if !d.Present || (f.CS.Index() == hw.GDTKernelCode && f.CS.RPL() != d.DPL) {
		c.RaiseGP(fmt.Sprintf("resume: cached selector %v but kernel DPL is %d",
			f.CS, d.DPL))
	}
}

// AppendLiveRoots appends to dst the page-directory root of every live
// address space — what Mercury's recompute pass must (re)validate at
// attach time — and returns the extended slice. The roots are sorted
// ascending, each once, so walk order, and with it the cycle accounting
// (which roots share a shard of the sharded recompute, and so the
// largest shard's tally), does not inherit map-iteration randomness.
func (k *Kernel) AppendLiveRoots(c *hw.CPU, dst []hw.PFN) []hw.PFN {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	n := len(dst)
	for _, p := range k.procs {
		if p.AS != nil {
			dst = append(dst, p.AS.PT.Root)
		}
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// AppendSleepingProcs appends to dst every process whose kernel stack
// holds cached interrupt frames — the set Mercury's selector-fixup stub
// walks — and returns the extended slice.
func (k *Kernel) AppendSleepingProcs(c *hw.CPU, dst []*Proc) []*Proc {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	for _, p := range k.procs {
		if len(p.SavedFrames) > 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// AddTimer registers a kernel timer (Mercury's deferred-switch retry
// uses it).
func (k *Kernel) AddTimer(c *hw.CPU, deadline hw.Cycles, fn func(*hw.CPU)) {
	k.timers.add(c, deadline, fn)
}

// TimerUpcall returns the virtual-timer entry point for VIRQ binding.
func (k *Kernel) TimerUpcall() func(c *hw.CPU) { return k.timerUpcall }

// RearmTick reprograms the periodic tick through the current VO (used
// right after a mode switch rebinds the timer path).
func (k *Kernel) RearmTick(c *hw.CPU) { k.armTick(c) }

// AppendTrapGates appends the kernel's trap table to dst as a VMM
// registration list and returns the extended slice (Mercury's attach
// path re-registers the handlers behind the VMM).
func (k *Kernel) AppendTrapGates(dst []xen.TrapEntry) []xen.TrapEntry {
	for v := 0; v < hw.NumVectors; v++ {
		g := k.IDT.Get(v)
		if g.Present {
			dst = append(dst, xen.TrapEntry{Vector: v, Handler: g.Handler})
		}
	}
	return dst
}

// Printk writes a line to the kernel console. This is a sensitive I/O
// operation (§3.2.4): in native mode the bytes go straight out the
// serial port at PL0; in virtual mode port output would fault, so the
// kernel uses the VMM's console service instead. Mercury's mode switch
// relocates this path implicitly with the virtualization object.
func (k *Kernel) Printk(c *hw.CPU, msg string) {
	if vobj, ok := k.VO().(*vo.Virtual); ok {
		vobj.V.HypConsoleIO(c, vobj.D, msg)
		return
	}
	for i := 0; i < len(msg); i++ {
		k.M.Serial.WritePort(c, msg[i])
	}
	k.M.Serial.WritePort(c, '\n')
}

// Printk from process context.
func (p *Proc) Printk(msg string) {
	p.Syscall(func(c *hw.CPU) { p.K.Printk(c, msg) })
}
