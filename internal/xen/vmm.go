package xen

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// VMM is the hypervisor. In the always-on configurations (X-0, X-U) it
// boots first, owns the hardware, and never releases it. Under Mercury it
// is *pre-cached*: built and warmed at machine boot (§4.1), holding its
// reserved memory and data structures, but inactive — the hardware IDT
// and the frame accounting belong to the native OS until a mode switch
// activates it.
type VMM struct {
	M *hw.Machine

	// Active is true while the VMM owns the hardware.
	Active bool

	// FT is the per-frame accounting table (stale while inactive).
	FT *FrameTable

	Domains map[DomID]*Domain

	// IDT/GDT are the VMM's own descriptor tables, installed in hardware
	// while active.
	IDT *hw.IDT
	GDT *hw.GDT

	// Reserved is the VMM's own memory footprint, carved off at boot.
	Reserved *hw.FrameAllocator

	// sched is the credit-weight domain scheduler state.
	sched DomSched

	// cur is the per-physical-CPU stack of domains being executed; the
	// top is the current domain on that CPU.
	cur [][]*Domain

	// mmu serializes frame-table mutation (validation, pinning) across
	// CPUs, as Xen's per-domain page lock does, and like Xen's
	// spin_lock_irqsave masks the holder's interrupts.
	mmu hw.SpinLock

	// injectPinFails makes the next N table pins fail with a transient
	// error (fault injection: a hypercall that fails mid-switch).
	injectPinFails atomic.Int32

	// Domctl fault injection: the next N pause/unpause/destroy
	// hypercalls fail with a transient error, so the migration
	// transaction's rollback ladder can be exercised at every rung.
	injectPauseFails   atomic.Int32
	injectUnpauseFails atomic.Int32
	injectDestroyFails atomic.Int32

	// journal is the dirty-frame journal (nil unless Mercury selects the
	// journal tracking policy; see journal.go).
	journal *DirtyJournal

	// shards is the sharded recompute's tally and frame claims (guarded
	// by mmu; see recompute_parallel.go).
	shards shardTally

	// rel is the detach's release tally (guarded by mmu; see release.go).
	rel releaseTally

	// keep is what the last rule detach kept for the next attach
	// (guarded by mmu; see attach.go).
	keep attachKeep

	nextDomID  DomID
	consoleLog []string

	Stats VMMStats

	// obsCache holds pre-resolved registry handles for the installed
	// collector so the hypercall hot path skips map lookups.
	obsCache atomic.Pointer[vmmObs]
}

// vmmObs caches the VMM's telemetry handles for one collector: the
// histograms and the counters no Stats field keeps. The Stats counters
// are adopted into the registry at construction instead.
type vmmObs struct {
	col            *obs.Collector
	hypercallCyc   *obs.Histogram
	faultBounceCyc *obs.Histogram
	schedSlices    *obs.Counter
	schedBudget    *obs.Histogram
	ringBurst      *obs.Histogram
	ringDepth      *obs.Histogram
	grantBatches   *obs.Counter
	grantBatchRefs *obs.Counter
}

// tel returns the cached telemetry handles, or nil when no collector
// is installed. The disabled path is a single atomic load.
func (v *VMM) tel() *vmmObs {
	col := v.M.Telemetry()
	if col == nil {
		return nil
	}
	h := v.obsCache.Load()
	if h == nil || h.col != col {
		r := col.Registry
		h = &vmmObs{
			col:            col,
			hypercallCyc:   r.Histogram("xen", "hypercall_cycles"),
			faultBounceCyc: r.Histogram("xen", "fault_bounce_cycles"),
			schedSlices:    r.Counter("xen", "sched_slices_total"),
			schedBudget:    r.Histogram("xen", "sched_slice_budget_cycles"),
			ringBurst:      r.Histogram("xen", "ring_burst_requests"),
			ringDepth:      r.Histogram("xen", "ring_depth"),
			grantBatches:   r.Counter("xen", "grant_map_batches_total"),
			grantBatchRefs: r.Counter("xen", "grant_map_batch_refs_total"),
		}
		v.obsCache.Store(h)
	}
	return h
}

// traceInstant records a point event (a pin, an unpin, an event send)
// on the installed collector's tracer, parented under the CPU's open
// span. Without a collector it costs one atomic load.
func (v *VMM) traceInstant(c *hw.CPU, name string, arg uint64) {
	if h := v.tel(); h != nil {
		h.col.Tracer.Instant(c.ID, c.Now(), name, arg)
	}
}

// VMMStats counts hypervisor-level events. Atomic: they arrive
// concurrently from every CPU. Boot adopts DomSwitches into the
// installed collector's series named beside it; it is a pointer, not a
// value, so the collector retains the counter and not the VMM.
// Hypercalls and multicalls are counted per domain (DomainStats).
type VMMStats struct {
	DomSwitches *obs.Counter // xen/dom_switches_total: one in and one out per RunInDomain

	// RecomputeFallbacks counts sharded recomputes whose shards could
	// not have walked independently (a page-table frame reachable from
	// two shards) and so were charged the serial walk on top.
	RecomputeFallbacks atomic.Uint64

	// RuleAttaches counts recomputes that restored the table the last
	// detach kept instead of walking (attach.go).
	RuleAttaches atomic.Uint64
}

// ReservedFrames is the pre-cached VMM's footprint: 16 MB worth of
// frames, standing in for Xen's 64 MB virtual reservation with a smaller
// resident set ("a VMM occupies only a reasonably small chunk of memory",
// §4.1).
const ReservedFrames = (16 << 20) / hw.PageSize

// Boot constructs the VMM on m, carving its reserved footprint out of
// the machine's frame allocator and preparing (warming) every internal
// structure. It does NOT take over the hardware; call Activate for that.
func Boot(m *hw.Machine) (*VMM, error) {
	res, err := m.Frames.Split(ReservedFrames)
	if err != nil {
		return nil, fmt.Errorf("xen: reserving VMM memory: %w", err)
	}
	v := &VMM{
		M:        m,
		FT:       NewFrameTable(m.Mem),
		Domains:  make(map[DomID]*Domain),
		Reserved: res,
		cur:      make([][]*Domain, len(m.CPUs)),
		Stats:    VMMStats{DomSwitches: obs.NewCounter()},
	}
	lo, hi := res.Range()
	for pfn := lo; pfn < hi; pfn++ {
		v.FT.SetOwner(pfn, DomVMM)
	}
	if col := m.Telemetry(); col != nil {
		r := col.Registry
		r.RegisterCounter(v.Stats.DomSwitches, "xen", "dom_switches_total")
		// Domains adopt their hypercall counters and the block backends
		// their rings' doorbell counters into these series; declare them
		// so an export without either shows them at zero.
		for _, name := range []string{"hypercalls_total", "multicalls_total", "multicall_ops_total",
			"ring_doorbells_total", "ring_doorbells_suppressed_total"} {
			r.Counter("xen", name)
		}
	}
	v.GDT = hw.NewGDT("vmm", hw.PL1) // guests run deprivileged at PL1
	v.IDT = hw.NewIDT("vmm")
	v.installTrapHandlers()
	return v, nil
}

// Host is one bare Xen host, brought up the way the paper boots a VMM
// (§4.1): its machine, the active VMM, the boot CPU, and the privileged
// control domain, current on C. The standby node that live migration
// (§6.3) and evacuation (§6.5) send domains to is a Host.
type Host struct {
	M    *hw.Machine
	V    *VMM
	C    *hw.CPU
	Dom0 *Domain
}

// BootHost builds a machine from cfg, boots the VMM on it, activates it
// on the boot CPU, and makes a privileged "dom0" of dom0Frames current
// there.
func BootHost(cfg hw.Config, dom0Frames hw.PFN) (*Host, error) {
	m := hw.NewMachine(cfg)
	v, err := Boot(m)
	if err != nil {
		return nil, err
	}
	c := m.BootCPU()
	v.Activate(c)
	dom0, err := v.CreateDomain("dom0", dom0Frames, true)
	if err != nil {
		return nil, err
	}
	v.SetCurrent(c, dom0)
	return &Host{M: m, V: v, C: c, Dom0: dom0}, nil
}

// installTrapHandlers populates the VMM IDT: guest-bound exceptions are
// bounced through the current domain's trap table; device lines are
// forwarded to the driver domain as events.
func (v *VMM) installTrapHandlers() {
	v.IDT.Set(hw.VecPageFault, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			d := v.Current(c)
			if d == nil {
				panic(fmt.Sprintf("xen: page fault at %#x with no current domain", f.Addr))
			}
			d.bounce(c, f)
		}})
	v.IDT.Set(hw.VecGP, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			d := v.Current(c)
			if d != nil && d.TrapGate(hw.VecGP).Present {
				d.bounce(c, f)
				return
			}
			panic(&hw.GPError{Reason: "unhandled #GP in VMM context"})
		}})
	v.IDT.Set(hw.VecTimer, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			// Virtual timer tick for the current domain, then weighted
			// background slices for the other runnable domains.
			d := v.Current(c)
			if d != nil && d.TimerHandler != nil {
				c.Charge(v.M.Costs.EventDeliver)
				prev := c.SetMode(hw.PL1)
				d.TimerHandler(c)
				c.SetMode(prev)
			}
			v.scheduleSlices(c, v.M.Hz/100)
		}})
	forward := func(line int) func(c *hw.CPU, f *hw.TrapFrame) {
		return func(c *hw.CPU, f *hw.TrapFrame) {
			// Physical device interrupt: forward to the driver domain's
			// registered handler for this vector.
			d := v.DriverDomain()
			if d == nil {
				return
			}
			g := d.TrapGate(f.Vector)
			if !g.Present {
				return
			}
			c.Charge(v.M.Costs.EventDeliver)
			run := func() {
				prev := c.SetMode(hw.PL1)
				g.Handler(c, f)
				c.SetMode(prev)
			}
			if v.Current(c) == d {
				run() // driver domain is already running: direct upcall
			} else {
				v.RunInDomain(c, d, run)
			}
		}
	}
	// The reschedule IPI doubles as Xen's event-check IPI: it only
	// wakes a halted CPU to recheck what it waits for.
	v.IDT.Set(hw.VecReschedIPI, hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(*hw.CPU, *hw.TrapFrame) {}})
	v.IDT.Set(hw.VecDisk, hw.Gate{Present: true, Target: hw.PL0, Handler: forward(hw.IRQLineDisk)})
	v.IDT.Set(hw.VecNIC, hw.Gate{Present: true, Target: hw.PL0, Handler: forward(hw.IRQLineNIC)})
}

// SetGate lets Mercury install extra vectors in the VMM IDT (the
// mode-switch interrupts must be reachable from virtual mode too).
func (v *VMM) SetGate(vector int, g hw.Gate) { v.IDT.Set(vector, g) }

// InjectPinFailures makes the next n table pins fail with a transient
// error; n = 0 clears any outstanding injection. Dependability testing
// only: this is how campaigns exercise the failure-resistant switch's
// rollback path without corrupting real state.
func (v *VMM) InjectPinFailures(n int32) { v.injectPinFails.Store(n) }

// InjectPauseFailures makes the next n HypDomctlPause calls fail with a
// transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectPauseFailures(n int32) { v.injectPauseFails.Store(n) }

// InjectUnpauseFailures makes the next n HypDomctlUnpause calls fail
// with a transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectUnpauseFailures(n int32) { v.injectUnpauseFails.Store(n) }

// InjectDestroyFailures makes the next n HypDomctlDestroy calls fail
// with a transient error; n = 0 clears any outstanding injection.
func (v *VMM) InjectDestroyFailures(n int32) { v.injectDestroyFails.Store(n) }

// takeInjected consumes one pending injected failure from ctr,
// reporting whether the calling hypercall should fail. The CAS loop
// keeps concurrent consumers from driving the count negative.
func takeInjected(ctr *atomic.Int32) bool {
	for {
		n := ctr.Load()
		if n <= 0 {
			return false
		}
		if ctr.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Activate makes the VMM take over the hardware on cpu: its descriptor
// tables are loaded and it becomes the most-privileged software. The
// caller (Mercury's state-reloading function, or BootHost) must already
// have frame accounting in a valid state.
func (v *VMM) Activate(c *hw.CPU) {
	v.Active = true
	c.Lgdt(v.GDT)
	c.Lidt(v.IDT)
}

// Deactivate releases the hardware (Mercury detaching the VMM). The
// frame table goes stale at this instant.
func (v *VMM) Deactivate(c *hw.CPU) {
	v.Active = false
}

// CreateDomain builds a new domain with nframes of memory taken from the
// machine's general allocator, owned by the new domain.
func (v *VMM) CreateDomain(name string, nframes hw.PFN, privileged bool) (*Domain, error) {
	part, err := v.M.Frames.Split(nframes)
	if err != nil {
		return nil, fmt.Errorf("xen: allocating dom%d memory: %w", v.nextDomID, err)
	}
	return v.newDomain(name, part, privileged), nil
}

// AdoptDomain registers an existing OS (with its already-owned frame
// allocator) as a domain — the self-virtualization path: the running
// native OS becomes the driver domain of the freshly activated VMM.
func (v *VMM) AdoptDomain(name string, frames *hw.FrameAllocator, privileged bool) *Domain {
	return v.newDomain(name, frames, privileged)
}

// newDomain is the one domain constructor: it takes the next domain ID,
// hands the domain ownership of frames, and adopts its event and
// fault-bounce counters into the installed collector.
func (v *VMM) newDomain(name string, frames *hw.FrameAllocator, privileged bool) *Domain {
	id := v.nextDomID
	v.nextDomID++
	d := &Domain{
		ID:          id,
		Name:        name,
		VMM:         v,
		Privileged:  privileged,
		Frames:      frames,
		pinnedRoots: make(map[hw.PFN]bool),
		Stats: DomainStats{Hypercalls: obs.NewCounter(), Multicalls: obs.NewCounter(),
			MulticallOps: obs.NewCounter(), EventsOut: obs.NewCounter(), FaultBounces: obs.NewCounter()},
	}
	d.VCPUs = []*VCPU{newVCPU(d)}
	lo, hi := frames.Range()
	for pfn := lo; pfn < hi; pfn++ {
		v.FT.SetOwner(pfn, id)
	}
	v.Domains[id] = d
	if col := v.M.Telemetry(); col != nil {
		for _, s := range d.Stats.series() {
			col.Registry.RegisterCounter(s.c, "xen", s.name)
		}
	}
	return d
}

// domainSeries is one of a domain's counters with the xen series it is
// adopted under.
type domainSeries struct {
	c    *obs.Counter
	name string
}

// series lists the counters newDomain adopts and DestroyDomain retires.
func (s *DomainStats) series() [5]domainSeries {
	return [5]domainSeries{
		{s.Hypercalls, "hypercalls_total"},
		{s.Multicalls, "multicalls_total"},
		{s.MulticallOps, "multicall_ops_total"},
		{s.EventsOut, "events_sent_total"},
		{s.FaultBounces, "fault_bounces_total"},
	}
}

// DestroyDomain tears a domain down, first releasing its pins and base
// pointer by the detach's walk at no charge, so that none outlives it
// to keep later detaches off the release rule. Its counters are
// retired from their series, which keep the counts, so an export walks
// only live domains. Its memory is left as it was.
func (v *VMM) DestroyDomain(id DomID) error {
	d, ok := v.Domains[id]
	if !ok {
		return fmt.Errorf("xen: destroying nonexistent dom%d", id)
	}
	v.mmu.Lock(nil)
	v.releaseWalk(nil, d, sinkNone)
	v.mmu.Unlock(nil)
	d.State = DomShutdown
	delete(v.Domains, id)
	if col := v.M.Telemetry(); col != nil {
		for _, s := range d.Stats.series() {
			col.Registry.RetireCounter(s.c, "xen", s.name)
		}
	}
	return nil
}

// DriverDomain returns the privileged domain (nil if none).
func (v *VMM) DriverDomain() *Domain {
	for _, d := range v.Domains {
		if d.Privileged {
			return d
		}
	}
	return nil
}

// Current returns the domain executing on c, if any.
func (v *VMM) Current(c *hw.CPU) *Domain {
	st := v.cur[c.ID]
	if len(st) == 0 {
		return nil
	}
	return st[len(st)-1]
}

// onStack reports whether d is anywhere on c's dispatch stack.
func (v *VMM) onStack(c *hw.CPU, d *Domain) bool {
	for _, e := range v.cur[c.ID] {
		if e == d {
			return true
		}
	}
	return false
}

// SetCurrent establishes d as the domain running on c without charging a
// switch (used at boot and by Mercury when the adopted OS becomes
// current).
func (v *VMM) SetCurrent(c *hw.CPU, d *Domain) {
	v.cur[c.ID] = v.cur[c.ID][:0]
	if d != nil {
		v.cur[c.ID] = append(v.cur[c.ID], d)
	}
}

// RunInDomain executes fn with d current on c, charging a domain switch
// in and out — the uniprocessor Xen pattern for backend processing, and
// what wiring code uses to run driver-domain work on behalf of another
// domain (e.g., pumping the physical NIC).
func (v *VMM) RunInDomain(c *hw.CPU, d *Domain, fn func()) {
	var sp obs.SpanRef
	if h := v.tel(); h != nil {
		sp = obs.Begin(h.col, c.ID, c.Now(), "xen/run-in-domain")
	}
	// The target domain is not running: besides the context switch, the
	// initiator eats the VMM scheduler's dispatch latency.
	c.Charge(v.M.Costs.DomSchedLatency)
	c.Charge(v.M.Costs.DomSwitch)
	v.Stats.DomSwitches.Add(1)
	v.cur[c.ID] = append(v.cur[c.ID], d)
	fn()
	v.cur[c.ID] = v.cur[c.ID][:len(v.cur[c.ID])-1]
	c.Charge(v.M.Costs.DomSwitch)
	v.Stats.DomSwitches.Add(1)
	sp.EndArg(c.Now(), uint64(d.ID))
}

// hcFrame is the state enter hands to exit. It lives on the caller's
// stack, so the prologue/epilogue pair performs no heap allocation.
type hcFrame struct {
	prev  uint8
	start hw.Cycles
	h     *vmmObs
}

// enter is the hypercall prologue: a world switch into the VMM at PL0,
// counted once, on the calling domain d. Usage:
//
//	defer v.exit(c, d, v.enter(c, d))
//
// A deferred call's arguments are evaluated at the defer statement, so
// enter runs there and exit later receives its frame; the plain defer is
// open-coded by the compiler and touches no heap.
//
// With a collector installed exit also records the hypercall's full
// latency (prologue charge through body) into the cycle histogram and
// attributes a "xen/hypercall" span to whatever span is open on this
// CPU — a mode-switch phase, a backend event, a benchmark loop.
func (v *VMM) enter(c *hw.CPU, d *Domain) hcFrame {
	fr := hcFrame{h: v.tel()}
	if fr.h != nil {
		fr.start = c.Now()
	}
	c.Charge(v.M.Costs.WorldSwitch + v.M.Costs.HypercallBase)
	d.Stats.Hypercalls.Inc()
	fr.prev = c.SetMode(hw.PL0)
	return fr
}

// exit is the hypercall epilogue matching enter.
func (v *VMM) exit(c *hw.CPU, d *Domain, fr hcFrame) {
	c.SetMode(fr.prev)
	if fr.h == nil {
		return
	}
	end := c.Now()
	fr.h.hypercallCyc.Observe(end - fr.start)
	fr.h.col.Tracer.Complete(c.ID, fr.start, end, "xen/hypercall", uint64(d.ID))
}
