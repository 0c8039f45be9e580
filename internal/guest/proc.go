package guest

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/hw"
)

// Pid identifies a process.
type Pid int

// ProcState is a process's scheduler state.
type ProcState int32

// Process states.
const (
	ProcRunnable ProcState = iota
	ProcRunning
	ProcBlocked
	ProcZombie
	ProcReaped
)

func (s ProcState) String() string {
	switch s {
	case ProcRunnable:
		return "runnable"
	case ProcRunning:
		return "running"
	case ProcBlocked:
		return "blocked"
	case ProcZombie:
		return "zombie"
	case ProcReaped:
		return "reaped"
	}
	return fmt.Sprintf("state%d", int32(s))
}

// Body is a process's user program. It runs on the process's goroutine
// and only while the process holds a CPU.
type Body func(p *Proc)

// Proc is one process. Its user program runs on a dedicated goroutine,
// but exactly one process goroutine per CPU executes at a time: the
// scheduler hands the CPU over a channel and the process hands it back
// when it blocks, yields or exits — a coroutine discipline standing in
// for the real kernel's context switching.
type Proc struct {
	Pid  Pid
	Name string
	K    *Kernel
	AS   *AddrSpace

	state atomic.Int32

	parent   *Proc
	children []*Proc

	resume chan *hw.CPU
	parked chan struct{}
	cpu    *hw.CPU

	fds      []*File
	exitCode int

	// SavedFrames models the interrupt frames cached on this thread's
	// kernel stack while it is descheduled. Mercury's selector-fixup
	// stub walks these during a mode switch (§5.1.2): the CS/SS pushed
	// at interrupt time carry the old mode's privilege bits.
	SavedFrames []*hw.TrapFrame

	// SegvHandler, when set, receives protection violations (the
	// process's SIGSEGV handler). Returning true means the fault was
	// handled (typically by setting the frame's Skip flag or repairing
	// the mapping).
	SegvHandler func(p *Proc, f *hw.TrapFrame) bool

	// workSlice controls preemption granularity for Work.
	workSlice hw.Cycles

	// lastTime is the TSC reading when the process last gave up a CPU;
	// dispatch aligns the next CPU's clock so time never runs backward
	// for a migrating process (cores share a synchronized TSC). Atomic:
	// a second scheduler may dispatch the process the instant it is
	// runnable, racing with the final bookkeeping of park.
	lastTime atomic.Uint64

	body Body
}

// State returns the scheduler state.
func (p *Proc) State() ProcState { return ProcState(p.state.Load()) }

func (p *Proc) setState(s ProcState) { p.state.Store(int32(s)) }

// CPU returns the CPU the process currently runs on. Only valid while
// running.
func (p *Proc) CPU() *hw.CPU {
	if p.cpu == nil {
		panic(fmt.Sprintf("guest: proc %d (%s) touched CPU while not running", p.Pid, p.Name))
	}
	return p.cpu
}

// newProc allocates the kernel-side process object.
func (k *Kernel) newProc(c *hw.CPU, name string, parent *Proc, body Body) *Proc {
	p := &Proc{
		Name:      name,
		K:         k,
		parent:    parent,
		resume:    make(chan *hw.CPU),
		parked:    make(chan struct{}),
		workSlice: k.M.Hz / DefaultHzTicks / 4,
		body:      body,
	}
	k.lk.Lock(c)
	p.Pid = k.nextPid
	k.nextPid++
	k.procs[p.Pid] = p
	if parent != nil {
		parent.children = append(parent.children, p)
	}
	k.lk.Unlock(c)
	k.nlive.Add(1)
	p.setState(ProcRunnable)

	go func() {
		c := <-p.resume
		p.cpu = c
		defer func() {
			if r := recover(); r != nil {
				// Surface guest panics on the host with context.
				panic(fmt.Sprintf("guest: proc %d (%s) crashed: %v", p.Pid, p.Name, r))
			}
		}()
		p.body(p)
		if p.State() != ProcZombie {
			p.Exit(0)
		}
	}()
	return p
}

// Spawn creates a new runnable process executing body in a fresh address
// space of the given image. The cost of building the address space is
// charged to the calling CPU.
func (k *Kernel) Spawn(c *hw.CPU, name string, img Image, body Body) *Proc {
	as := k.newAddrSpace(c, img)
	p := k.newProc(c, name, nil, body)
	p.AS = as
	k.enqueue(c, p)
	return p
}

// enqueue makes p runnable and kicks an idle CPU to pick it up.
func (k *Kernel) enqueue(c *hw.CPU, p *Proc) {
	k.acquire(c)
	p.setState(ProcRunnable)
	k.runq = append(k.runq, p)
	k.lk.Unlock(c)
	c.WakeHalted(hw.VecReschedIPI, false)
}

// dispatchable reports whether a queued entry is safe to context-switch
// into: a live, runnable member of the process table. Called with the
// kernel lock held.
func (k *Kernel) dispatchable(p *Proc) bool {
	if p == nil || p.State() != ProcRunnable {
		return false
	}
	_, known := k.procs[p.Pid]
	return known
}

// pickNext pops the next dispatchable process. Corrupt entries (dead or
// unknown processes — the §6.2 fault model) are never context-switched
// into; they stay queued for the runqueue sensor and repair to find.
func (k *Kernel) pickNext(c *hw.CPU) *Proc {
	k.acquire(c)
	defer k.lk.Unlock(c)
	i := slices.IndexFunc(k.runq, k.dispatchable)
	if i < 0 {
		return nil
	}
	p := k.runq[i]
	k.runq = append(k.runq[:i], k.runq[i+1:]...)
	return p
}

// hasRunnable reports whether the run queue holds a dispatchable entry.
func (k *Kernel) hasRunnable(c *hw.CPU) bool {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	return slices.ContainsFunc(k.runq, k.dispatchable)
}

// Run drives the scheduler on c until every process has exited. On an
// SMP machine, run it on every CPU under hw.Machine.Run.
func (k *Kernel) Run(c *hw.CPU) {
	for {
		p := k.pickNext(c)
		if p == nil {
			if k.nlive.Load() == 0 {
				return
			}
			c.IdleUntil(func() bool {
				return k.hasRunnable(c) || k.nlive.Load() == 0
			})
			continue
		}
		k.dispatch(c, p)
	}
}

// dispatch context-switches to p and lets it run until it parks.
func (k *Kernel) dispatch(c *hw.CPU, p *Proc) {
	prev := k.cur[c.ID]
	if last := p.lastTime.Load(); c.Now() < last {
		// Migrating to a CPU whose idle loop lagged: TSCs are
		// synchronized, so bring this core's clock forward.
		c.Clk.Advance(last - c.Now())
	}
	k.switchContext(c, prev, p)
	k.cur[c.ID] = p
	p.setState(ProcRunning)
	p.resume <- c
	<-p.parked
	k.cur[c.ID] = nil
}

// switchContext performs the scheduler work and the sensitive part of a
// context switch: installing the next address space root (a CR3 load
// natively; stack_switch+new_baseptr hypercalls under a VMM).
func (k *Kernel) switchContext(c *hw.CPU, prev, next *Proc) {
	k.Stats.CtxSwitches.Add(1)
	// Scheduler bookkeeping: runqueue manipulation, accounting, FPU and
	// thread-state save/restore.
	c.Charge(k.M.Costs.CtxWork)
	if next.AS == nil {
		return // kernel thread: borrow previous mappings
	}
	if prev == nil || prev.AS == nil || prev.AS.PT.Root != next.AS.PT.Root {
		k.VO().ContextSwitch(c, next.AS.PT.Root)
		for _, pt := range k.retired[c.ID] {
			pt.Free(k.Frames.Free)
		}
		k.retired[c.ID] = k.retired[c.ID][:0]
	}
}

// park hands the CPU back to the scheduler and waits to run again. The
// interrupted context's segment selectors are cached in a saved frame on
// the thread's kernel stack — exactly the state Mercury's selector-fixup
// stub must patch if a mode switch happens while this thread sleeps
// (§5.1.2).
func (p *Proc) park() {
	k := p.K
	frame := &hw.TrapFrame{
		CS: hw.MakeSelector(hw.GDTKernelCode, k.KernelPL()),
		SS: hw.MakeSelector(hw.GDTKernelData, k.KernelPL()),
		IF: true,
	}
	p.SavedFrames = append(p.SavedFrames, frame)
	p.lastTime.Store(p.cpu.Now())
	p.cpu = nil
	p.parked <- struct{}{}
	c := <-p.resume
	p.cpu = c
	// Pop the saved frame, faulting if its cached privilege bits no
	// longer match the live descriptor table (the hazard the fixup
	// prevents).
	p.SavedFrames = p.SavedFrames[:len(p.SavedFrames)-1]
	k.validateResumeFrame(c, frame)
}

// Yield voluntarily releases the CPU.
func (p *Proc) Yield() {
	k := p.K
	c := p.CPU()
	k.enqueue(c, p)
	p.park()
}

// maybeResched yields if the tick asked for a reschedule.
func (p *Proc) maybeResched() {
	if p.K.needResched.CompareAndSwap(true, false) {
		p.Yield()
	}
}

// block parks the process in the Blocked state; a waker must requeue it.
func (p *Proc) block() {
	p.setState(ProcBlocked)
	p.park()
}

// wake makes a blocked process runnable again.
func (k *Kernel) wake(c *hw.CPU, p *Proc) {
	if p.State() == ProcBlocked {
		k.enqueue(c, p)
	}
}

// Work charges n cycles of user-mode computation, honoring preemption at
// timeslice boundaries.
func (p *Proc) Work(n hw.Cycles) {
	c := p.CPU()
	prev := c.SetMode(hw.PL3)
	for n > 0 {
		s := n
		if s > p.workSlice {
			s = p.workSlice
		}
		c.Charge(s)
		n -= s
		c.SetMode(prev)
		p.maybeResched()
		c = p.CPU() // may have migrated
		prev = c.SetMode(hw.PL3)
	}
	c.SetMode(prev)
}

// Exit terminates the process, releasing its address space and waking a
// waiting parent. It does not return.
func (p *Proc) Exit(code int) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	p.exitCode = code
	for _, f := range p.fds {
		if f != nil {
			k.FS.Close(c, f)
		}
	}
	p.fds = nil
	if p.AS != nil {
		k.releaseAddrSpace(c, p.AS)
		p.AS = nil
	}
	p.setState(ProcZombie)
	if k.nlive.Add(-1) == 0 {
		c.WakeHalted(hw.VecReschedIPI, true)
	}
	if p.parent != nil {
		k.acquire(c)
		parent := p.parent
		k.lk.Unlock(c)
		if parent.State() == ProcBlocked {
			k.wake(c, parent)
		}
	}
	p.cpu = nil
	p.parked <- struct{}{}
	// Terminate the process goroutine; the kernel-side object lives on
	// as a zombie until reaped.
	runtime.Goexit()
}

// Wait blocks until some child exits, reaps it, and returns its pid and
// exit code. Returns ok=false if there are no children.
func (p *Proc) Wait() (Pid, int, bool) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry + k.M.Costs.SyscallExit)
	for {
		k.acquire(c)
		if len(p.children) == 0 {
			k.lk.Unlock(c)
			return 0, 0, false
		}
		for i, ch := range p.children {
			if ch.State() == ProcZombie {
				p.children = append(p.children[:i], p.children[i+1:]...)
				ch.setState(ProcReaped)
				delete(k.procs, ch.Pid)
				k.lk.Unlock(c)
				c.Charge(k.M.Costs.MemRead * 20) // reap bookkeeping
				return ch.Pid, ch.exitCode, true
			}
		}
		k.lk.Unlock(c)
		p.block()
		c = p.CPU()
	}
}

// Sleep blocks the process for d cycles of simulated time.
func (p *Proc) Sleep(d hw.Cycles) {
	k := p.K
	c := p.CPU()
	deadline := c.Now() + d
	k.timers.add(c, deadline, func(tc *hw.CPU) { k.wake(tc, p) })
	p.block()
}

// Syscall wraps fn in user->kernel->user privilege transitions with the
// architectural trap costs; fn runs at the kernel's privilege level.
func (p *Proc) Syscall(fn func(c *hw.CPU)) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())
	fn(c)
	c = p.CPU()
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
}

// --- wait queues ---

// waitQueue is a list of processes waiting for a condition.
type waitQueue struct {
	procs []*Proc
}

// sleepOn parks p on q (caller must already hold no kernel lock).
func (k *Kernel) sleepOn(q *waitQueue, p *Proc) {
	c := p.CPU()
	k.acquire(c)
	q.procs = append(q.procs, p)
	k.lk.Unlock(c)
	p.block()
}

// wakeAll moves every waiter on q to the run queue.
func (k *Kernel) wakeAll(c *hw.CPU, q *waitQueue) {
	k.acquire(c)
	ps := q.procs
	q.procs = nil
	k.lk.Unlock(c)
	for _, p := range ps {
		k.wake(c, p)
	}
}

// CheckRunqueue verifies scheduler-state integrity: every queued
// process must be a live, runnable member of the process table. The
// self-healing sensor (§6.2) polls this invariant from guest context on
// c; host-side orchestration passes a nil c.
func (k *Kernel) CheckRunqueue(c *hw.CPU) error {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	for _, p := range k.runq {
		if p == nil {
			return fmt.Errorf("guest: nil entry on run queue")
		}
		if st := p.State(); st == ProcZombie || st == ProcReaped {
			return fmt.Errorf("guest: dead process %d (%s) on run queue", p.Pid, st)
		}
		if _, ok := k.procs[p.Pid]; !ok {
			return fmt.Errorf("guest: unknown process %d on run queue", p.Pid)
		}
	}
	return nil
}

// RepairRunqueue removes invalid entries, returning how many were
// dropped. The healing VMM calls it with the kernel quiescent.
func (k *Kernel) RepairRunqueue(c *hw.CPU) int {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	kept := k.runq[:0]
	dropped := 0
	for _, p := range k.runq {
		bad := p == nil
		if !bad {
			st := p.State()
			_, known := k.procs[p.Pid]
			bad = st == ProcZombie || st == ProcReaped || !known
		}
		if bad {
			dropped++
			c.Charge(k.M.Costs.MemWrite * 8)
			continue
		}
		kept = append(kept, p)
	}
	k.runq = kept
	return dropped
}

// InjectRunqueueCorruption places a dead process on the run queue —
// fault injection for the self-healing tests and example, from guest
// context on c or host-side with a nil c.
func (k *Kernel) InjectRunqueueCorruption(c *hw.CPU) {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	ghost := &Proc{Pid: 9999, Name: "ghost", K: k}
	ghost.setState(ProcZombie)
	k.runq = append(k.runq, ghost)
}
