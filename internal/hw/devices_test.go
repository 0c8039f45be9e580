package hw

import (
	"testing"
	"testing/quick"
)

func TestFrameAllocatorBasics(t *testing.T) {
	a := NewFrameAllocator(10, 20)
	seen := map[PFN]bool{}
	for i := 0; i < 10; i++ {
		pfn := a.Alloc()
		if pfn == NoPFN {
			t.Fatalf("exhausted after %d", i)
		}
		if pfn < 10 || pfn >= 20 || seen[pfn] {
			t.Fatalf("bad frame %d", pfn)
		}
		seen[pfn] = true
	}
	if a.Alloc() != NoPFN {
		t.Fatal("over-allocated")
	}
	a.Free(12)
	if got := a.Alloc(); got != 12 {
		t.Fatalf("free list not reused: got %d", got)
	}
	if a.InUse() != 10 || a.Available() != 0 {
		t.Fatalf("accounting: inuse=%d avail=%d", a.InUse(), a.Available())
	}
}

func TestFrameAllocatorDoubleFreePanics(t *testing.T) {
	a := NewFrameAllocator(0, 4)
	pfn := a.Alloc()
	a.Free(pfn)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	a.Free(pfn)
}

func TestFrameAllocatorSplit(t *testing.T) {
	a := NewFrameAllocator(0, 100)
	top, err := a.Split(30)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := top.Range()
	if lo != 70 || hi != 100 {
		t.Fatalf("top range [%d,%d)", lo, hi)
	}
	if _, hi := a.Range(); hi != 70 {
		t.Fatalf("bottom hi = %d", hi)
	}
	a.Alloc()
	if _, err := a.Split(10); err == nil {
		t.Fatal("Split after allocation accepted")
	}
}

func TestFrameAllocatorSplitTop(t *testing.T) {
	a := NewFrameAllocator(0, 100)
	for i := 0; i < 40; i++ {
		a.Alloc()
	}
	top, err := a.SplitTop(50)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := top.Range()
	if lo != 50 || hi != 100 {
		t.Fatalf("top range [%d,%d)", lo, hi)
	}
	// Remaining capacity shrank accordingly.
	if got := a.Available(); got != 10 {
		t.Fatalf("available = %d", got)
	}
	if _, err := a.SplitTop(11); err == nil {
		t.Fatal("SplitTop into allocated region accepted")
	}
}

// Property: alloc/free sequences never hand out a frame twice.
func TestFrameAllocatorNoDoubleHandout(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewFrameAllocator(0, 64)
		live := map[PFN]bool{}
		var order []PFN
		for _, alloc := range ops {
			if alloc {
				pfn := a.Alloc()
				if pfn == NoPFN {
					continue
				}
				if live[pfn] {
					return false
				}
				live[pfn] = true
				order = append(order, pfn)
			} else if len(order) > 0 {
				pfn := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, pfn)
				a.Free(pfn)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReadBackAndMergedAccounting(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	buf := make([]byte, 2*BlockSize)
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	if err := m.Disk.Submit(c, DiskRequest{Block: 7, Write: true, Blocks: 2, Merged: 2}, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*BlockSize)
	if err := m.Disk.Submit(c, DiskRequest{Block: 7, Blocks: 2}, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], buf[i])
		}
	}
	if m.Disk.Stats.Requests != 2 || m.Disk.Stats.BlocksIO != 4 {
		t.Fatalf("stats: %+v", m.Disk.Stats)
	}
	// Unwritten blocks read as zero.
	z := make([]byte, BlockSize)
	if err := m.Disk.Submit(c, DiskRequest{Block: 99, Blocks: 1}, z); err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("unwritten block nonzero")
		}
	}
	// Size validation.
	if err := m.Disk.Submit(c, DiskRequest{Block: 0, Blocks: 2}, z); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestDiskIOCostsCharged(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	before := c.Now()
	buf := make([]byte, BlockSize)
	_ = m.Disk.Submit(c, DiskRequest{Block: 0, Write: true, Blocks: 1}, buf)
	cost := c.Now() - before
	want := m.Costs.DiskRequest + 4*m.Costs.DiskPerKB
	if cost < want {
		t.Fatalf("disk charged %d, want >= %d", cost, want)
	}
}

func TestNICReflector(t *testing.T) {
	m := testMachine(1)
	c := m.BootCPU()
	m.NIC.Reflector = func(p Packet) []Packet {
		return []Packet{{Data: append([]byte("re:"), p.Data...)}}
	}
	m.NIC.Transmit(c, Packet{Data: []byte("x")})
	if m.NIC.Pending() != 1 {
		t.Fatal("reply not queued")
	}
	pkt, ok := m.NIC.Receive(c, true)
	if !ok || string(pkt.Data) != "re:x" {
		t.Fatalf("reflected = %q", pkt.Data)
	}
	// Non-blocking receive with nothing deliverable.
	if _, ok := m.NIC.Receive(c, false); ok {
		t.Fatal("phantom packet")
	}
}

func TestSensorBank(t *testing.T) {
	s := NewSensorBank()
	if s.Read(SensorCPUTempC) <= 0 {
		t.Fatal("no nominal temperature")
	}
	s.Set(SensorCPUTempC, 95)
	if s.Read(SensorCPUTempC) != 95 {
		t.Fatal("set/read mismatch")
	}
	if len(s.Names()) < 4 {
		t.Fatalf("sensors: %v", s.Names())
	}
	if s.Read("bogus") != 0 {
		t.Fatal("unknown sensor nonzero")
	}
}

func TestSMPScaledInflatesOnlyKernelWork(t *testing.T) {
	base := DefaultCosts()
	smp := base.SMPScaled()
	if smp.ForkPerPage <= base.ForkPerPage || smp.CtxWork <= base.CtxWork {
		t.Fatal("kernel work not inflated")
	}
	if smp.WorldSwitch != base.WorldSwitch || smp.MMUUpdateEntry != base.MMUUpdateEntry {
		t.Fatal("VMM costs must not scale with core count")
	}
	if base.ForkPerPage != DefaultCosts().ForkPerPage {
		t.Fatal("SMPScaled mutated the receiver")
	}
}

func TestIOAPICRoutingAndMask(t *testing.T) {
	m := testMachine(2)
	m.IOAPIC.Route(5, 1, VecNIC)
	m.IOAPIC.Raise(nil, 5)
	if m.CPUs[1].LAPIC.nextEvent(0, true) == never {
		t.Fatal("line not routed to cpu1")
	}
	m.CPUs[1].LAPIC.take()
	m.IOAPIC.Mask(5, true)
	m.IOAPIC.Raise(nil, 5)
	if m.CPUs[1].LAPIC.nextEvent(0, true) != never {
		t.Fatal("masked line delivered")
	}
	if len(m.IOAPIC.Routes()) == 0 {
		t.Fatal("routes not reported")
	}
}
