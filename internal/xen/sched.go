package xen

import (
	"sync"

	"repro/internal/hw"
)

// Domain CPU scheduling, in the spirit of Xen's credit scheduler: each
// domain carries a weight; on every timer tick the VMM hands the other
// runnable domains a slice of the tick proportional to their weights.
// This is what makes a hosted, CPU-hungry guest visibly steal time from
// the driver domain — the VMM-level contention the paper's introduction
// cites as part of virtualization's cost.
//
// A passive domain (one whose kernel is not being driven by a scheduler
// loop of its own) participates by registering BackgroundWork: the
// vcpu's compute function, invoked with a cycle budget.

// DomSched is the VMM's domain scheduler state.
type DomSched struct {
	mu      sync.Mutex
	weights map[DomID]uint32
}

// DefaultWeight is the credit weight a domain starts with.
const DefaultWeight = 256

// SetWeight assigns a domain's scheduling weight (0 = never scheduled
// in the background).
func (v *VMM) SetWeight(d *Domain, w uint32) {
	v.sched.mu.Lock()
	if v.sched.weights == nil {
		v.sched.weights = make(map[DomID]uint32)
	}
	v.sched.weights[d.ID] = w
	v.sched.mu.Unlock()
}

// Weight returns a domain's scheduling weight.
func (v *VMM) Weight(d *Domain) uint32 {
	v.sched.mu.Lock()
	defer v.sched.mu.Unlock()
	if v.sched.weights == nil {
		return DefaultWeight
	}
	if w, ok := v.sched.weights[d.ID]; ok {
		return w
	}
	return DefaultWeight
}

// scheduleSlices runs at every VMM timer tick: every *other* runnable
// domain with registered background work receives its weighted share of
// the tick period on this physical CPU. The current domain keeps the
// remainder implicitly (it continues executing after the tick).
func (v *VMM) scheduleSlices(c *hw.CPU, tickPeriod hw.Cycles) {
	cur := v.Current(c)
	// Gather contenders and the total weight (including the current
	// domain's, which "spends" its share by simply continuing).
	type contender struct {
		d *Domain
		w uint32
	}
	var others []contender
	total := uint64(0)
	if cur != nil {
		total += uint64(v.Weight(cur))
	}
	for _, d := range v.Domains {
		if d == cur || d.State != DomRunning || d.BackgroundWork == nil {
			continue
		}
		w := v.Weight(d)
		if w == 0 {
			continue
		}
		others = append(others, contender{d, w})
		total += uint64(w)
	}
	if len(others) == 0 || total == 0 {
		return
	}
	h := v.tel()
	for _, ct := range others {
		budget := hw.Cycles(uint64(tickPeriod) * uint64(ct.w) / total)
		if budget == 0 {
			continue
		}
		if h != nil {
			h.schedSlices.Inc()
			h.schedBudget.Observe(budget)
		}
		d := ct.d
		v.RunInDomain(c, d, func() {
			prev := c.SetMode(hw.PL1)
			d.BackgroundWork(c, budget)
			c.SetMode(prev)
		})
	}
}
