package main

import (
	"time"

	"repro/internal/bench"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/vo"
	"repro/internal/xen"
)

// Readers and timers the workloads share to measure layers from the
// outside: public counters read before and after, and host-timed loops
// over public functions.

// voCounts sums the calls and PTE writes of every virtualization object
// the system's kernel can be bound to.
func voCounts(s *bench.System) (calls, pteWrites uint64) {
	stats := []vo.Stats{}
	if s.Mercury != nil {
		stats = append(stats, s.Mercury.NativeVO.Stats, s.Mercury.VirtualVO.Stats)
	} else if d, ok := s.K.VO().(*vo.Direct); ok {
		stats = append(stats, d.Stats)
	}
	for _, st := range stats {
		calls += st.Calls.Load()
		pteWrites += st.PTEWrites.Load()
	}
	return calls, pteWrites
}

// readFrames returns the host nanoseconds per PhysMem.ReadWord over
// every word of frames.
func readFrames(mem *hw.PhysMem, frames []hw.PFN) float64 {
	var sum uint32
	ns := hostLoop(func() {
		for _, f := range frames {
			for off := hw.PhysAddr(0); off < hw.PageSize; off += 4 {
				sum += mem.ReadWord(f.Addr() + off)
			}
		}
	}, len(frames)*hw.PageSize/4)
	readSink = sum
	return ns
}

// readSink keeps the probe reads observable so the loop is not elided.
var readSink uint32

// hostLoop calls fn until at least 20 ms of host time have passed and
// returns the host nanoseconds per item, fn covering items items.
func hostLoop(fn func(), items int) float64 {
	t0 := time.Now()
	calls := 0
	for calls == 0 || time.Since(t0) < 20*time.Millisecond {
		fn()
		calls++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls*items)
}

// counters snapshots the hw counters of a CPU and the xen counters of
// a domain, so a workload can record per-op deltas over its timed work.
type counters [7]uint64

var counterNames = [7]string{"hw.tlb_misses_per_op", "hw.tlb_flushes_per_op",
	"hw.interrupts_per_op", "xen.hypercalls_per_op", "xen.mmu_updates_per_op",
	"xen.fault_bounces_per_op", "xen.multicall_ops_per_op"}

func snapshot(c *hw.CPU, d *xen.Domain) counters {
	return counters{c.TLB.Misses, c.TLB.Flushes, c.Stats.Interrupts,
		d.Stats.Hypercalls.Load(), d.Stats.MMUUpdates.Load(),
		d.Stats.FaultBounces.Load(), d.Stats.MulticallOps.Load()}
}

// record records the per-op counts between snapshot a and now.
func (a counters) record(m *meter, now counters, ops float64) {
	for i, name := range counterNames {
		m.layer(name, float64(now[i]-a[i])/ops)
	}
}

// counterSum sums a registry counter over all its label sets.
func counterSum(col *obs.Collector, subsystem, name string) uint64 {
	var n uint64
	col.Registry.Each(func(mt *obs.Metric) {
		if mt.Subsystem == subsystem && mt.Name == name && mt.Kind == obs.KindCounter {
			n += col.Registry.Counter(mt.Subsystem, mt.Name, mt.Labels...).Load()
		}
	})
	return n
}
