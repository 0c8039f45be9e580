package xen

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
)

func TestBootReservesFootprint(t *testing.T) {
	const dom0Frames = 512
	h, err := BootHost(hw.Config{MemBytes: 64 << 20, NumCPUs: 1}, dom0Frames)
	if err != nil {
		t.Fatal(err)
	}
	v, c, d0 := h.V, h.C, h.Dom0
	lo, hi := v.Reserved.Range()
	if int(hi-lo) != ReservedFrames {
		t.Fatalf("reserved %d frames", hi-lo)
	}
	if got, want := hw.PFN(h.M.Frames.Available()), h.M.Mem.NumFrames()-1-ReservedFrames-dom0Frames; got != want {
		t.Fatalf("machine allocator has %d frames, want %d", got, want)
	}
	// Reserved frames carry VMM ownership.
	if v.FT.Get(lo).Owner != DomVMM {
		t.Fatal("reserved frame not VMM-owned")
	}
	if !v.Active {
		t.Fatal("VMM not active after BootHost")
	}
	if c != h.M.BootCPU() || c.GDTR != v.GDT || c.IDTR != v.IDT {
		t.Fatal("boot CPU does not carry the VMM's descriptor tables")
	}
	if v.Current(c) != d0 || !d0.Privileged || v.DriverDomain() != d0 {
		t.Fatal("dom0 is not the current privileged domain")
	}
	// dom0 owns exactly its partition: the frame below it is still in
	// the boot allocator and has no owner, the one above is the VMM's.
	dlo, dhi := d0.Frames.Range()
	if dhi-dlo != dom0Frames {
		t.Fatalf("dom0 has %d frames, want %d", dhi-dlo, dom0Frames)
	}
	for pfn := dlo; pfn < dhi; pfn++ {
		if o := v.FT.Get(pfn).Owner; o != d0.ID {
			t.Fatalf("dom0 frame %d owned by dom%d", pfn, o)
		}
	}
	for _, pfn := range []hw.PFN{0, dlo - 1} {
		if o := v.FT.Get(pfn).Owner; o != DomNone {
			t.Fatalf("frame %d, given to no domain, owned by dom%d", pfn, o)
		}
	}
	if o := v.FT.Get(dhi).Owner; o != DomVMM {
		t.Fatalf("frame %d above dom0 owned by dom%d, want the VMM", dhi, o)
	}
}

func TestActivateInstallsTables(t *testing.T) {
	v, _, c := testVMM(t)
	if c.IDTR != v.IDT || c.GDTR != v.GDT {
		t.Fatal("activate did not install the VMM tables")
	}
	if !v.Active {
		t.Fatal("not active")
	}
	v.Deactivate(c)
	if v.Active {
		t.Fatal("still active")
	}
}

func TestCreateDomainOwnership(t *testing.T) {
	v, d, _ := testVMM(t)
	lo, hi := d.Frames.Range()
	if v.FT.Get(lo).Owner != d.ID || v.FT.Get(hi-1).Owner != d.ID {
		t.Fatal("partition frames not owned by the domain")
	}
	if d.VCPU0() == nil || !d.VCPU0().VIF() {
		t.Fatal("vcpu not initialized")
	}
}

func TestAdoptDomainKeepsAllocator(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 32 << 20, NumCPUs: 1})
	v, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	d := v.AdoptDomain("os", m.Frames, true)
	if d.Frames != m.Frames {
		t.Fatal("adopted domain must keep its own allocator")
	}
	if !d.Privileged {
		t.Fatal("adopted OS must be the driver domain")
	}
	if v.DriverDomain() != d {
		t.Fatal("driver domain lookup failed")
	}
}

func TestConsoleIO(t *testing.T) {
	v, d, c := testVMM(t)
	v.HypConsoleIO(c, d, "hello from the guest")
	log := v.ConsoleLog()
	if len(log) != 1 || !strings.Contains(log[0], "hello from the guest") {
		t.Fatalf("console log: %v", log)
	}
	if !strings.Contains(log[0], "dom") {
		t.Fatal("console line not attributed to a domain")
	}
}

func TestDeviceIRQForwardedToDriverDomain(t *testing.T) {
	// A physical disk interrupt while an unprivileged domain runs must
	// reach the *driver* domain's handler.
	h, err := BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	v, d0, c := h.V, h.Dom0, h.C
	dU, _ := v.CreateDomain("domU", 512, false)
	v.SetCurrent(c, dU)

	served := 0
	d0.SetTrapGate(hw.VecDisk, func(cc *hw.CPU, f *hw.TrapFrame) { served++ })
	// The unprivileged guest is executing (deprivileged, interrupts on —
	// the hardware IF belongs to the VMM).
	c.SetMode(hw.PL1)
	c.IF = true
	c.LAPIC.Post(nil, hw.VecDisk)
	c.Charge(10)
	if served != 1 {
		t.Fatalf("driver domain served %d disk IRQs", served)
	}
	// The VMM switched to dom0 and back.
	if v.Stats.DomSwitches.Load() < 2 {
		t.Fatalf("dom switches = %d", v.Stats.DomSwitches.Load())
	}
}

func TestHypSchedBlockWaitsForEvent(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	// Bind a pair; dU blocks until d0 signals.
	pU := v.EvtchnAllocUnbound(c, dU, d0.ID)
	woken := false
	dU.SetPortHandler(pU, func(cc *hw.CPU) { woken = true })
	p0, err := v.EvtchnBindInterdomain(c, d0, dU.ID, pU)
	if err != nil {
		t.Fatal(err)
	}

	// Mask the target so the event stays pending instead of being
	// delivered synchronously at send time.
	dU.VCPU0().SetVIF(false)
	v.SetCurrent(c, d0)
	if err := v.EvtchnSend(c, d0, p0); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Fatal("masked event delivered early")
	}
	v.SetCurrent(c, dU)
	dU.VCPU0().SetVIF(true)
	v.HypSchedBlock(c, dU)
	if !woken {
		t.Fatal("block did not drain the pending event")
	}
}

func TestRunInDomainChargesSwitch(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	_ = dU
	before := c.Now()
	ran := false
	v.RunInDomain(c, d0, func() {
		ran = true
		if v.Current(c) != d0 {
			t.Error("current domain not switched")
		}
	})
	if !ran {
		t.Fatal("fn did not run")
	}
	cost := c.Now() - before
	want := v.M.Costs.DomSchedLatency + 2*v.M.Costs.DomSwitch
	if cost < want {
		t.Fatalf("charged %d, want >= %d", cost, want)
	}
}

func TestUpdateDescriptorValidation(t *testing.T) {
	v, d, c := testVMM(t)
	g := hw.NewGDT("guest", hw.PL1)

	// Legal: a user-code descriptor.
	ok := hw.SegDesc{Kind: hw.SegCode, Limit: 0xFFFF, DPL: hw.PL3, Present: true}
	if err := v.HypUpdateDescriptor(c, d, g, hw.GDTUserCode, ok); err != nil {
		t.Fatal(err)
	}
	// Escalation: a PL0 descriptor from a deprivileged guest.
	bad := hw.SegDesc{Kind: hw.SegCode, Limit: 0xFFFF, DPL: hw.PL0, Present: true}
	if err := v.HypUpdateDescriptor(c, d, g, hw.GDTUserCode, bad); err == nil {
		t.Fatal("guest installed a PL0 descriptor")
	}
	// Hypervisor slots are immutable.
	if err := v.HypUpdateDescriptor(c, d, g, hw.GDTVMMCode, ok); err == nil {
		t.Fatal("guest modified a hypervisor descriptor")
	}
	// Range check.
	if err := v.HypUpdateDescriptor(c, d, g, 99, ok); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestTraceCapturesHypercallsAndPins: with a collector installed, a
// pin/unpin pair leaves two xen/hypercall spans and one xen/pin and one
// xen/unpin instant, all attributed to the calling domain.
func TestTraceCapturesHypercallsAndPins(t *testing.T) {
	v, d, c := testVMM(t)
	col := obs.New(1)
	v.M.SetTelemetry(col)
	tb, _ := buildTree(t, v, d, 2)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.HypUnpinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	spans := col.Tracer.Spans()
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Arg != uint64(d.ID) {
			t.Fatalf("%s span for dom%d, want dom%d", s.Name, s.Arg, d.ID)
		}
	}
	if len(spans) != 4 || names["xen/hypercall"] != 2 || names["xen/pin"] != 1 || names["xen/unpin"] != 1 {
		t.Fatalf("spans = %v", names)
	}
	// Each instant lands inside its hypercall: pin, then pin's
	// hypercall, then unpin, then unpin's hypercall (single CPU).
	order := []string{"xen/pin", "xen/hypercall", "xen/unpin", "xen/hypercall"}
	for i, s := range spans {
		if s.Name != order[i] {
			t.Fatalf("span %d is %s, want %s", i, s.Name, order[i])
		}
		if i > 0 && s.End < spans[i-1].End {
			t.Fatal("trace out of order")
		}
	}
	if spans[0].Start < spans[1].Start || spans[0].Start > spans[1].End {
		t.Fatalf("pin at %d outside its hypercall [%d, %d)", spans[0].Start, spans[1].Start, spans[1].End)
	}
}

// TestTraceDisabledIsFree: without a collector the trace points record
// nothing anywhere and allocate nothing.
func TestTraceDisabledIsFree(t *testing.T) {
	v, d, c := testVMM(t)
	tb, _ := buildTree(t, v, d, 2)
	if err := v.HypPinTable(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		v.traceInstant(c, "xen/pin", uint64(d.ID))
	}); allocs != 0 {
		t.Fatalf("disabled trace point allocates %.0f times", allocs)
	}
	col := obs.New(1)
	v.M.SetTelemetry(col)
	if n := len(col.Tracer.Spans()); n != 0 {
		t.Fatalf("a collector installed afterwards holds %d spans", n)
	}
}

// TestRecomputeReleaseAllocFree: once warmed, an attach's recompute and
// a detach's release allocate nothing, however many roots they pin and
// however many CPUs the recompute is sharded across.
func TestRecomputeReleaseAllocFree(t *testing.T) {
	v, d, c := testVMM(t)
	roots := buildForest(t, v, d, 10, 40)
	for _, workers := range []int{1, 2, 4} {
		if allocs := testing.AllocsPerRun(50, func() {
			if err := v.RecomputeFrameInfo(c, d, roots, workers); err != nil {
				t.Fatal(err)
			}
			v.ReleaseFrameInfo(c, d)
		}); allocs != 0 {
			t.Errorf("recompute on %d workers and release allocate %.0f times", workers, allocs)
		}
	}
}

// TestDestroyDomainReleasesPins: destroying a domain releases its pinned
// roots and its base pointer at no charge, so its directory's record
// reads zero and the next detach of another domain takes the release
// rule instead of falling back to the walk.
func TestDestroyDomainReleasesPins(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	tb, _ := buildTree(t, v, dU, 3)
	if err := v.HypPinTable(c, dU, tb.Root); err != nil {
		t.Fatal(err)
	}
	if err := v.HypNewBaseptr(c, dU, tb.Root); err != nil {
		t.Fatal(err)
	}
	own, _ := buildTree(t, v, d0, 2)
	if err := v.HypPinTable(c, d0, own.Root); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := v.DestroyDomain(dU.ID); err != nil {
		t.Fatal(err)
	}
	if c.Now() != before {
		t.Errorf("destroy charged %d cycles", c.Now()-before)
	}
	if fi := v.FT.Get(tb.Root); fi.TypeCount != 0 || fi.TotalRefs != 0 || fi.Pinned {
		t.Fatalf("destroyed domain's root reads %+v, want no refs and no pin", fi)
	}
	if v.rel.holders != 1 {
		t.Fatalf("release tally holds %d holders, want dom0's one pin", v.rel.holders)
	}
	v.ReleaseFrameInfo(c, d0)
	if n := v.FT.Touched(); n != 0 {
		t.Fatalf("detach walked (%d frames touched since the last reset), want the rule", n)
	}
	if v.rel != (releaseTally{}) {
		t.Fatalf("release tally %+v after the detach, want zero", v.rel)
	}
}

// TestDestroyDomainRetiresCounters: over 2,000 create/destroy cycles
// every xen/* series a domain counts into sums exactly to a running
// model, and a destroyed domain's counters are no longer walked: what
// they count after the destroy never reaches the series.
func TestDestroyDomainRetiresCounters(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: 1})
	col := obs.New(1)
	m.SetTelemetry(col)
	v, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	var live []*Domain
	var model [5]uint64
	for cycle := 0; cycle < 2000; cycle++ {
		d, err := v.CreateDomain("cycle", 1, false)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, d)
		for i, d := range live {
			for k, s := range d.Stats.series() {
				n := uint64(i + k + 1)
				s.c.Add(n)
				model[k] += n
			}
		}
		if len(live) > 4 || cycle%2 == 1 {
			dead := live[cycle%len(live)]
			if err := v.DestroyDomain(dead.ID); err != nil {
				t.Fatal(err)
			}
			live = slices.DeleteFunc(live, func(d *Domain) bool { return d == dead })
			for _, s := range dead.Stats.series() {
				s.c.Inc()
			}
		}
		for k, s := range (&DomainStats{}).series() {
			if got := col.Registry.Counter("xen", s.name).Load(); got != model[k] {
				t.Fatalf("cycle %d: xen/%s = %d, model %d", cycle, s.name, got, model[k])
			}
		}
	}
}
