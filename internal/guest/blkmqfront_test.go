package guest

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/xen"
)

// TestMQBlockFrontendSubmitWrapsFullRing: a synchronous Submit of more
// blocks than the ring holds takes several laps of push, doorbell and
// poll, completes every block, and ends every grant; the data reads
// back intact through a second over-sized Submit.
func TestMQBlockFrontendSubmitWrapsFullRing(t *testing.T) {
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, v, c, drv := h.M, h.V, h.C, h.Dom0
	fe, err := v.CreateDomain("front", 1536, false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, fe)
	be := xen.NewBlkMQBackend(v, drv, m.Disk, 1, xen.DefaultRingSize, 1)
	f := NewMQBlockFrontend(v, fe, drv.ID, 1)
	if err := f.Connect(c, be); err != nil {
		t.Fatal(err)
	}
	q := f.Queues[0]

	const blocks = 600
	if blocks <= q.Ring.Capacity() {
		t.Fatalf("ring capacity %d does not force a wrap", q.Ring.Capacity())
	}
	submit := func(write bool, fill func(i int, pfn hw.PFN)) []hw.PFN {
		t.Helper()
		reqs := make([]BlockReq, blocks)
		pfns := make([]hw.PFN, blocks)
		for i := range reqs {
			pfns[i] = fe.Frames.Alloc()
			fill(i, pfns[i])
			reqs[i] = BlockReq{Block: uint64(100 + i), Write: write, PFN: pfns[i]}
		}
		f.Submit(c, reqs)
		if f.Outstanding() != 0 || len(q.grants) != 0 {
			t.Fatalf("after Submit: %d outstanding, %d grants not ended",
				f.Outstanding(), len(q.grants))
		}
		return pfns
	}

	submit(true, func(i int, pfn hw.PFN) { m.Mem.FrameBytes(pfn)[0] = byte(i) })
	if got := be.Stats.Requests.Load(); got != blocks {
		t.Fatalf("backend served %d of %d writes", got, blocks)
	}
	if kicks := q.Ring.Stats.ReqKicks.Load(); kicks < 3 {
		t.Fatalf("%d blocks through %d slots rang %d doorbells, want a lap each",
			blocks, q.Ring.Capacity(), kicks)
	}

	dst := submit(false, func(int, hw.PFN) {})
	for i, pfn := range dst {
		if got := m.Mem.FrameBytesRO(pfn)[0]; got != byte(i) {
			t.Fatalf("block %d read back %#x, want %#x", 100+i, got, byte(i))
		}
	}
	if got := q.Ring.Stats.RespSlots.Load(); got != 2*blocks {
		t.Fatalf("%d completions for %d blocks", got, 2*blocks)
	}
}

// TestMQBlockFrontendSubmitWaitsForOtherCPU: when another CPU serves
// the queue (here the doorbell cannot reach the driver domain, whose
// upcalls are masked), a synchronous Submit idles until the completions
// arrive instead of ringing more doorbells, then finishes normally.
func TestMQBlockFrontendSubmitWaitsForOtherCPU(t *testing.T) {
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 2}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, v, drv := h.M, h.V, h.Dom0
	cA, cB := h.C, m.CPUs[1]
	fe, err := v.CreateDomain("front", 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	be := xen.NewBlkMQBackend(v, drv, m.Disk, 1, 16, 1)
	f := NewMQBlockFrontend(v, fe, drv.ID, 1)
	if err := f.Connect(cA, be); err != nil {
		t.Fatal(err)
	}
	v.SetVIF(cA, drv, false)
	v.SetCurrent(cA, fe)
	v.SetCurrent(cB, drv)

	reqs := make([]BlockReq, 4)
	for i := range reqs {
		reqs[i] = BlockReq{Block: uint64(10 + i), Write: true, PFN: fe.Frames.Alloc()}
	}
	served := 0
	m.Run(func(c *hw.CPU) {
		if c == cA {
			f.Submit(cA, reqs)
			return
		}
		for !cA.Halted() { // poll, in step with cA, until it idles
			cB.Charge(20)
		}
		served = be.PollQueue(cB, be.Queues[0])
	})
	if served != len(reqs) {
		t.Fatalf("the other CPU served %d of %d", served, len(reqs))
	}
	q := f.Queues[0]
	if f.Outstanding() != 0 || len(q.grants) != 0 {
		t.Fatalf("after Submit: %d outstanding, %d grants", f.Outstanding(), len(q.grants))
	}
	if kicks := q.Ring.Stats.ReqKicks.Load(); kicks != 1 || f.Stats.ForcedKicks.Load() != 0 {
		t.Fatalf("waiting rang doorbells: %d request kicks, %d forced", kicks, f.Stats.ForcedKicks.Load())
	}
	if cA.Stats.IdleCycles == 0 {
		t.Fatal("Submit did not idle while the other CPU served")
	}
}
