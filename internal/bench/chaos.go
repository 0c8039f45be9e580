package bench

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/xen"
)

// chaosMaxDeferrals bounds the switch retry budget in campaigns so a
// starved-switch episode resolves after a handful of simulated 10ms
// ticks instead of the production default of 100.
const chaosMaxDeferrals = 8

// ChaosRun is one campaign execution on a machine of NCPU processors.
type ChaosRun struct {
	NCPU   int
	Report *chaos.Report
}

// ChaosResult is the dependability experiment: the same seeded fault
// campaign run on a uniprocessor and on an SMP machine (where every
// switch goes through the §5.4 rendezvous).
type ChaosResult struct {
	Seed int64
	Runs []ChaosRun
}

// ChaosCampaign builds a fresh Mercury system per processor count and
// runs the seeded campaign against it. When opt.Collector is set it is
// installed on the uniprocessor run, so the chaos counters and the MTTR
// histogram land in the registry.
func ChaosCampaign(seed int64, episodes int, opt Options) (ChaosResult, error) {
	opt.fill()
	res := ChaosResult{Seed: seed}
	for _, ncpu := range []int{1, 2} {
		cfg := hw.DefaultConfig()
		cfg.NumCPUs = ncpu
		cfg.MemBytes = opt.MemBytes
		m := hw.NewMachine(cfg)
		if opt.Collector != nil && ncpu == 1 {
			m.SetTelemetry(opt.Collector)
		}
		mc, err := core.New(core.Config{
			Machine: m, Policy: opt.Policy, MaxDeferrals: chaosMaxDeferrals,
		})
		if err != nil {
			return res, err
		}
		ccfg := chaos.DefaultConfig(seed)
		if episodes > 0 {
			ccfg.Episodes = episodes
		}
		if opt.MigrateFaults {
			if ccfg.Standby, err = xen.BootHost(hw.Config{Name: "standby", MemBytes: 128 << 20, NumCPUs: 1}, 2048); err != nil {
				return res, err
			}
		}
		rep, err := chaos.Run(mc, ccfg)
		if err != nil {
			return res, fmt.Errorf("bench: chaos campaign (%d cpus): %w", ncpu, err)
		}
		res.Runs = append(res.Runs, ChaosRun{NCPU: ncpu, Report: rep})
	}
	return res, nil
}

// WriteChaos renders the dependability table.
func WriteChaos(w io.Writer, r ChaosResult) {
	fmt.Fprintf(w, "Chaos campaign (seed %d): injected faults vs. detection and repair\n", r.Seed)
	fmt.Fprintf(w, "%-5s %8s %8s %8s %7s %7s %11s %8s %9s %9s\n",
		"cpus", "episodes", "injected", "detected", "healed", "missed",
		"rolled-back", "starved", "escalated", "mttr(us)")
	for _, run := range r.Runs {
		rep := run.Report
		fmt.Fprintf(w, "%-5d %8d %8d %8d %7d %7d %11d %8d %9d %9.1f\n",
			run.NCPU, len(rep.Episodes), rep.Injected, rep.Detected, rep.Healed,
			rep.Missed, rep.RolledBack, rep.Starved, rep.Escalated, rep.MTTRMeanUS)
	}
}
