package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/guest"
)

// The switch-latency scaling benchmark: attach/detach cycle counts as a
// function of tracking policy, processor count and resident working-set
// size. Two effects are under test:
//
//   - the sharded recompute makes first-attach latency sub-linear in CPU
//     count (the walk parallelizes across the roots of the resident
//     processes while the APs are parked at the rendezvous);
//   - the dirty-frame journal makes a re-attach after a lightly dirtied
//     native episode (~10% of the small region rewritten) cost a replay
//     of the journaled slots instead of a full recompute.
//
// Cycle counts are exact simulation values measured inside the engine
// (Stats.LastAttachCyc / LastDetachCyc), so the sweep is deterministic
// for a given configuration and diffable against a committed baseline.

// scaleLoadProcs is the number of resident processes whose page-table
// trees the attach must (re)validate; their roots are what the parallel
// recompute shards.
const scaleLoadProcs = 10

// SwitchScalePoint is one measured sweep point.
type SwitchScalePoint struct {
	Policy string `json:"policy"`
	NCPU   int    `json:"ncpu"`
	Pages  int    `json:"pages"` // resident pages across the load processes

	AttachCyc   uint64 `json:"attach_cyc"`   // first attach: cold frame accounting
	ReattachCyc uint64 `json:"reattach_cyc"` // attach after a ~10%-dirty native episode
	DetachCyc   uint64 `json:"detach_cyc"`   // final detach

	AttachUS   float64 `json:"attach_us"`
	ReattachUS float64 `json:"reattach_us"`
	DetachUS   float64 `json:"detach_us"`

	Fallbacks uint64 `json:"fallbacks,omitempty"` // journal epochs that fell back to recompute
	Replays   uint64 `json:"replays,omitempty"`   // journal re-attaches served by replay
}

// ScalePolicies are the swept tracking policies.
var ScalePolicies = []core.TrackingPolicy{core.TrackRecompute, core.TrackActive, core.TrackJournal}

// ScaleNCPUs and ScalePages are the swept machine sizes.
var (
	ScaleNCPUs = []int{1, 2, 4}
	ScalePages = []int{1024, 4096}
)

// SwitchScale runs the full sweep.
func SwitchScale() ([]SwitchScalePoint, error) {
	var out []SwitchScalePoint
	for _, policy := range ScalePolicies {
		for _, ncpu := range ScaleNCPUs {
			for _, pages := range ScalePages {
				pt, err := switchScalePoint(policy, ncpu, pages)
				if err != nil {
					return nil, fmt.Errorf("bench: switchscale %v/%dcpu/%dpg: %w",
						policy, ncpu, pages, err)
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// switchScalePoint measures one configuration: populate the working set,
// attach cold, detach, dirty ~10% of the driver's region natively,
// re-attach, detach.
func switchScalePoint(policy core.TrackingPolicy, ncpu, pages int) (SwitchScalePoint, error) {
	s, err := Build(MN, Options{Policy: policy, NCPU: ncpu, MemBytes: 512 << 20})
	if err != nil {
		return SwitchScalePoint{}, err
	}
	mc := s.Mercury
	pt := SwitchScalePoint{Policy: policy.String(), NCPU: ncpu, Pages: pages}

	perProc := pages / scaleLoadProcs
	small := pages / 10 // the driver's own region; ~10% of the set gets dirtied

	s.Run("switch-scale", func(p *guest.Proc) {
		release := Residents(p, scaleLoadProcs, func(lp *guest.Proc) {
			base := lp.Mmap(perProc, guest.ProtRead|guest.ProtWrite, true)
			lp.Touch(base, perProc, true)
		})
		dirty := p.Mmap(small, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(dirty, small, true)

		// Cold attach: the full working set must be validated (recompute
		// policies) or the journal's first-attach fallback taken.
		if err := mc.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
			panic(err)
		}
		pt.AttachCyc = mc.Stats.LastAttachCyc.Load()
		if err := mc.SwitchSync(p.CPU(), core.ModeNative); err != nil {
			panic(err)
		}
		pt.DetachCyc = mc.Stats.LastDetachCyc.Load()

		// A light native episode: rewrite the driver's small region's
		// leaf entries (protection toggles — no structural change).
		p.Mprotect(dirty, guest.ProtRead)
		p.Mprotect(dirty, guest.ProtRead|guest.ProtWrite)

		if err := mc.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
			panic(err)
		}
		pt.ReattachCyc = mc.Stats.LastAttachCyc.Load()
		if err := mc.SwitchSync(p.CPU(), core.ModeNative); err != nil {
			panic(err)
		}

		release()
	})

	pt.AttachUS = s.Micros(pt.AttachCyc)
	pt.ReattachUS = s.Micros(pt.ReattachCyc)
	pt.DetachUS = s.Micros(pt.DetachCyc)
	if j := mc.VMM.Journal(); j != nil {
		st := j.StatsSnapshot()
		pt.Fallbacks = st.Fallbacks
		pt.Replays = st.Replays
	}
	return pt, nil
}

// WriteSwitchScale renders the sweep as a table.
func WriteSwitchScale(w io.Writer, pts []SwitchScalePoint) {
	fmt.Fprintf(w, "Switch-latency scaling: attach/re-attach/detach vs policy, CPUs, working set\n")
	fmt.Fprintf(w, "%-10s %5s %6s %12s %12s %12s %10s %10s\n",
		"policy", "cpus", "pages", "attach(cyc)", "reattach", "detach", "attach(us)", "reatt(us)")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-10s %5d %6d %12d %12d %12d %10.1f %10.1f\n",
			pt.Policy, pt.NCPU, pt.Pages, pt.AttachCyc, pt.ReattachCyc, pt.DetachCyc,
			pt.AttachUS, pt.ReattachUS)
	}
}
