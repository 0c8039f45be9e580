package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// Config parameterizes one campaign.
type Config struct {
	Seed     int64
	Episodes int // default 16
	// Workload interleaves forked processes touching memory between
	// episodes; SwitchCycles interleaves clean attach/detach cycles.
	Workload     bool
	SwitchCycles bool
	// Faults overrides the injected classes (default Catalog(mc)).
	Faults []*Fault
	// Standby, when set, is the host failed repairs evacuate to (§6.5)
	// and the migration faults migrate to.
	Standby *xen.Host
	// Fork, when set, adds the snapshot-cache faults (ForkFaults) and
	// gives DetectStore episodes their probe target.
	Fork *ForkEnv
	// IO, when set, adds the split-device datapath faults (IOFaults)
	// and gives DetectIO episodes their probe target.
	IO *IOEnv
}

// DefaultConfig returns a fully interleaved campaign for the seed.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Episodes: 16, Workload: true, SwitchCycles: true}
}

// Episode records one fault's full lifecycle.
type Episode struct {
	Index      int
	Fault      string
	Layer      Layer
	Detector   Detector
	Workload   bool // a forked workload ran before the fault
	PreSwitch  bool // a clean attach/detach cycle ran before the fault
	Injected   bool
	Detected   bool
	Healed     bool // the system verified clean after repair/undo
	RolledBack bool // a switch attempt was rolled back by validation
	Starved    bool // a switch attempt was abandoned by the deferral budget
	Escalated  bool // healing failed and the node evacuated
	Detail     string
	MTTRCycles uint64 // injection to verified-healthy, cycle-accurate
}

// Report is a campaign's dependability summary.
type Report struct {
	Seed     int64
	Episodes []Episode
	// Classes names the fault classes the campaign drew from, in
	// catalog order.
	Classes []string

	Injected   int
	Detected   int
	Healed     int
	Missed     int // injected but not detected — a detector gap
	RolledBack int
	Starved    int
	Escalated  int

	MTTRTotalCycles uint64
	MTTRMeanUS      float64
}

// Summary renders the report's counts as one line.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"seed %d: %d episodes, %d injected, %d detected, %d healed, %d missed, %d rolled back, %d starved, %d escalated, MTTR %.1f us",
		r.Seed, len(r.Episodes), r.Injected, r.Detected, r.Healed, r.Missed,
		r.RolledBack, r.Starved, r.Escalated, r.MTTRMeanUS)
}

// Draws renders, as one line, how many episodes drew each of the
// campaign's fault classes, in catalog order.
func (r *Report) Draws() string {
	n := make(map[string]int, len(r.Classes))
	for _, ep := range r.Episodes {
		n[ep.Fault]++
	}
	var b strings.Builder
	b.WriteString("drawn:")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, " %s=%d", c, n[c])
	}
	return b.String()
}

// FaultClasses returns how many distinct fault classes the campaign
// exercised.
func (r *Report) FaultClasses() int {
	seen := map[string]bool{}
	for _, ep := range r.Episodes {
		seen[ep.Fault] = true
	}
	return len(seen)
}

// Run executes a campaign against mc, driving the guest scheduler on
// every CPU (the SMP rendezvous path is exercised whenever the machine
// has more than one processor). The campaign runs inside a spawned
// driver process so switches, heals, and evacuations happen in guest
// execution context, exactly as the production paths do.
//
// Reproducibility: with the same mc configuration, seed, and config,
// two runs produce identical episode sequences and cycle counts (and so
// MTTR) on any CPU count.
func Run(mc *core.Mercury, cfg Config) (*Report, error) {
	if cfg.Episodes <= 0 {
		cfg.Episodes = 16
	}
	faults := cfg.Faults
	if len(faults) == 0 {
		faults = Catalog(mc)
		if cfg.Standby != nil {
			// With a migration target available the campaign also
			// attacks the §6.3 maintenance pipeline.
			faults = append(faults, MigrationFaults()...)
		}
		if cfg.Fork != nil {
			// With a snapshot-cache node available the campaign also
			// attacks the fork store's refcount and content integrity.
			faults = append(faults, ForkFaults()...)
		}
		if cfg.IO != nil {
			// With a split-device node available the campaign also
			// attacks the multi-queue I/O rings and their doorbells.
			faults = append(faults, IOFaults()...)
		}
	}
	rep := &Report{Seed: cfg.Seed}
	for _, f := range faults {
		rep.Classes = append(rep.Classes, f.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var runErr error
	k := mc.K
	boot := mc.M.BootCPU()
	k.Spawn(boot, "chaos-driver", guest.DefaultImage("chaos-driver"), func(p *guest.Proc) {
		// Populate some page tables so guest-layer faults have victims.
		base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 8, true)
		ctx := &Ctx{MC: mc, P: p, Rand: rng, Migrate: &migrate.FaultInjection{}, Fork: cfg.Fork, IO: cfg.IO}
		for i := 0; i < cfg.Episodes; i++ {
			ep, err := runEpisode(ctx, cfg, faults, rep, i)
			rep.Episodes = append(rep.Episodes, ep)
			if err != nil {
				runErr = fmt.Errorf("chaos: episode %d (%s): %w", i, ep.Fault, err)
				return
			}
		}
	})
	mc.M.Run(k.Run)

	if n := len(rep.Episodes); n > 0 {
		rep.MTTRMeanUS = float64(rep.MTTRTotalCycles) / float64(n) /
			float64(mc.M.Hz) * 1e6
	}
	return rep, runErr
}

// runEpisode drives one fault through inject -> detect -> heal ->
// verify, with optional workload and clean-switch interleaving before
// the injection.
func runEpisode(ctx *Ctx, cfg Config, faults []*Fault, rep *Report, i int) (Episode, error) {
	mc := ctx.MC
	ctx.C = ctx.P.CPU()
	ep := Episode{Index: i}

	// Interleave: a forked workload and/or a clean attach/detach cycle,
	// each verified against the invariant checker.
	if cfg.Workload && ctx.Rand.Intn(3) == 0 {
		ep.Workload = true
		runWorkload(ctx.P)
		ctx.C = ctx.P.CPU()
		if err := mc.CheckInvariants(ctx.C); err != nil {
			return ep, fmt.Errorf("after workload: %w", err)
		}
	}
	if cfg.SwitchCycles && ctx.Rand.Intn(4) == 0 {
		ep.PreSwitch = true
		if err := mc.SwitchSync(ctx.C, core.ModePartialVirtual); err != nil {
			return ep, fmt.Errorf("clean attach: %w", err)
		}
		if err := mc.CheckInvariants(ctx.C); err != nil {
			return ep, fmt.Errorf("attached invariants: %w", err)
		}
		if err := mc.SwitchSync(ctx.C, core.ModeNative); err != nil {
			return ep, fmt.Errorf("clean detach: %w", err)
		}
		if err := mc.CheckInvariants(ctx.C); err != nil {
			return ep, fmt.Errorf("after clean cycle: %w", err)
		}
	}

	f := faults[ctx.Rand.Intn(len(faults))]
	ep.Fault, ep.Layer, ep.Detector = f.Name, f.Layer, f.Detector
	injectedAt := ctx.C.Now()
	act, err := f.Inject(ctx)
	if err != nil {
		return ep, fmt.Errorf("inject: %w", err)
	}
	ep.Injected = true
	rep.Injected++

	var derr error
	switch f.Detector {
	case DetectInvariant:
		derr = detectInvariant(ctx, &ep, act)
	case DetectSensor:
		derr = detectSensor(ctx, cfg, &ep, act)
	case DetectSwitch:
		derr = detectSwitch(ctx, &ep, act)
	case DetectTxn:
		derr = detectTxn(ctx, cfg, &ep, act)
	case DetectStore:
		derr = detectStore(ctx, cfg, &ep, act)
	case DetectIO:
		derr = detectIO(ctx, cfg, &ep, act)
	default:
		derr = fmt.Errorf("unknown detector %q", f.Detector)
	}
	if derr != nil {
		return ep, derr
	}

	// The episode's verdict: the whole system must verify clean.
	if err := mc.CheckInvariants(ctx.C); err != nil {
		return ep, fmt.Errorf("post-episode invariants: %w", err)
	}
	ep.MTTRCycles = ctx.C.Now() - injectedAt

	rep.MTTRTotalCycles += ep.MTTRCycles
	if ep.Detected {
		rep.Detected++
	} else {
		rep.Missed++
	}
	if ep.Healed {
		rep.Healed++
	}
	if ep.RolledBack {
		rep.RolledBack++
	}
	if ep.Starved {
		rep.Starved++
	}
	if ep.Escalated {
		rep.Escalated++
	}
	return ep, nil
}

// detectInvariant expects the system-wide checker to report the fault,
// and a clean check once the fault is removed.
func detectInvariant(ctx *Ctx, ep *Episode, act *Active) error {
	verr := ctx.MC.CheckInvariants(ctx.C)
	if verr != nil {
		ep.Detected = true
		ep.Detail = verr.Error()
	}
	act.Undo()
	if err := ctx.MC.CheckInvariants(ctx.C); err != nil {
		return fmt.Errorf("undo left system dirty: %w", err)
	}
	ep.Healed = true
	return nil
}

// detectSensor expects a healing sensor to trip; the self-healing path
// (escalating to evacuation when a Standby is configured) repairs it.
func detectSensor(ctx *Ctx, cfg Config, ep *Episode, act *Active) error {
	mc := ctx.MC
	if act.Sensor == nil {
		return fmt.Errorf("sensor-detected fault provided no sensor")
	}
	sensors := []core.Sensor{*act.Sensor}
	if cfg.Standby != nil {
		er, err := mc.HealOrEvacuate(ctx.C, sensors, act.Repair,
			cfg.Standby.V, cfg.Standby.Dom0, migrate.LiveConfig{})
		if er != nil {
			ep.Detected = true
			ep.Escalated = er.Escalated
			if er.Heal != nil {
				ep.Healed = er.Heal.Healed
				ep.Detail = er.Heal.Anomaly
			}
			if er.Escalated && er.Evacuation != nil && er.Evacuation.NodeReleased {
				// The node healed itself out of existence: the fault is
				// contained even though the repair failed.
				ep.Healed = true
				ep.Detail += "; evacuated"
			}
		}
		if err != nil {
			return fmt.Errorf("heal-or-evacuate: %w", err)
		}
	} else {
		hr, err := mc.SelfHeal(ctx.C, sensors, act.Repair)
		if hr != nil {
			ep.Detected = true
			ep.Healed = hr.Healed
			ep.Detail = hr.Anomaly
		}
		if err != nil {
			return fmt.Errorf("self-heal: %w", err)
		}
	}
	act.Undo() // idempotent cleanup for whatever the repair left behind
	return nil
}

// detectSwitch expects the mode switch itself to reject the fault —
// validation rolls back, or the deferral budget reports starvation —
// and a retry to succeed once the fault is removed.
func detectSwitch(ctx *Ctx, ep *Episode, act *Active) error {
	mc := ctx.MC
	failedBefore := mc.Stats.FailedSwitches.Load()
	starvedBefore := mc.Stats.StarvedSwitches.Load()

	serr := mc.SwitchSync(ctx.C, core.ModePartialVirtual)
	if serr == nil {
		// The switch committed despite the fault: a detector gap.
		act.Undo()
		if err := mc.SwitchSync(ctx.C, core.ModeNative); err != nil {
			return fmt.Errorf("detaching after undetected fault: %w", err)
		}
		return nil
	}
	if mc.Mode() != core.ModeNative {
		return fmt.Errorf("failed switch left mode %v", mc.Mode())
	}
	ep.Detected = true
	ep.Detail = serr.Error()
	ep.RolledBack = mc.Stats.FailedSwitches.Load() > failedBefore
	ep.Starved = mc.Stats.StarvedSwitches.Load() > starvedBefore

	act.Undo()
	// With the fault removed the switch must commit — the §8 promise
	// that a failed switch is not fatal.
	if err := mc.SwitchSync(ctx.C, core.ModePartialVirtual); err != nil {
		return fmt.Errorf("retry after undo: %w", err)
	}
	if err := mc.SwitchSync(ctx.C, core.ModeNative); err != nil {
		return fmt.Errorf("detach after retry: %w", err)
	}
	ep.Healed = true
	return nil
}

// runWorkload forks a child that touches fresh memory, then reaps it —
// enough to churn address spaces, page refcounts, and the scheduler
// between faults.
func runWorkload(p *guest.Proc) {
	p.Fork("chaos-work", func(cp *guest.Proc) {
		base := cp.Mmap(4, guest.ProtRead|guest.ProtWrite, true)
		cp.Touch(base, 4, true)
	})
	p.Wait()
}

// FormatEpisodes renders the episode table for the CLI.
func FormatEpisodes(r *Report) string {
	var b strings.Builder
	for _, ep := range r.Episodes {
		flags := ""
		if ep.Workload {
			flags += "w"
		}
		if ep.PreSwitch {
			flags += "s"
		}
		verdict := "MISSED"
		switch {
		case ep.Starved:
			verdict = "starved"
		case ep.RolledBack:
			verdict = "rolled-back"
		case ep.Escalated:
			verdict = "escalated"
		case ep.Healed:
			verdict = "healed"
		case ep.Detected:
			verdict = "detected"
		}
		fmt.Fprintf(&b, "%3d  %-22s %-6s %-18s %-12s mttr=%dcyc %s\n",
			ep.Index, ep.Fault, ep.Layer, ep.Detector, verdict, ep.MTTRCycles, flags)
	}
	return b.String()
}
