package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// MigrationFaults returns the fault classes aimed at the §6.3 online-
// maintenance pipeline. They need a migration target, so Run only adds
// them to the default catalog when cfg.Standby is set. Each one is
// expected to be caught by the migration transaction (DetectTxn): the
// migration aborts, the rollback ladder restores both machines, and a
// retry commits once the fault is cleared.
func MigrationFaults() []*Fault {
	return []*Fault{
		{
			// The source pause hypercall fails at the stop-and-copy
			// boundary: the half-built destination must be torn down.
			Name: "migrate-pause-fail", Layer: LayerVMM, Detector: DetectTxn,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.MC.VMM.InjectPauseFailures(1)
				return &Active{Undo: func() { ctx.MC.VMM.InjectPauseFailures(0) }}, nil
			},
		},
		{
			// The source destroy at the commit point fails: the fully
			// verified destination must still be rolled back (two live
			// copies are worse than a retried migration).
			Name: "migrate-destroy-fail", Layer: LayerVMM, Detector: DetectTxn,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.MC.VMM.InjectDestroyFailures(1)
				return &Active{Undo: func() { ctx.MC.VMM.InjectDestroyFailures(0) }}, nil
			},
		},
		{
			// The migration link goes down after the first pre-copy
			// round: every later transfer, including stop-and-copy,
			// fails — the paused source must resume.
			Name: "migrate-link-stall", Layer: LayerHW, Detector: DetectTxn,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.Migrate.StallLinkAfterRounds = 1
				return &Active{Undo: ctx.Migrate.Clear}, nil
			},
		},
		{
			// The transfer aborts partway through round 0: a partial
			// destination image must be scrubbed and discarded.
			Name: "migrate-midcopy-abort", Layer: LayerHW, Detector: DetectTxn,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.Migrate.FailCopyAfterPages = 1 + ctx.Rand.Intn(32)
				return &Active{Undo: ctx.Migrate.Clear}, nil
			},
		},
	}
}

// victimFrames is the migrating guest's partition size in detectTxn
// episodes — small enough that a campaign's worth of donations fits the
// driver domain's partition.
const victimFrames = 96

// detectTxn expects the migration transaction to reject the fault: a
// live migration of a scratch victim domain to the standby fails, every
// journaled side effect is rolled back (no leaked destination domain,
// source domain still present and running, dirty log disarmed), and the
// retry commits once the fault is removed.
func detectTxn(ctx *Ctx, cfg Config, ep *Episode, act *Active) error {
	mc := ctx.MC
	if cfg.Standby == nil {
		return fmt.Errorf("migration fault needs a standby destination")
	}
	wasNative := mc.Mode() == core.ModeNative
	if wasNative {
		if err := mc.SwitchSync(ctx.C, core.ModePartialVirtual); err != nil {
			return fmt.Errorf("attaching for migration: %w", err)
		}
	}
	victim, err := mc.VMM.HypDomctlCreateFromFrames(ctx.C, mc.Dom, "migrate-victim", victimFrames)
	if err != nil {
		return fmt.Errorf("creating victim: %w", err)
	}
	lo, _ := victim.Frames.Range()
	for i := 0; i < victimFrames/2; i++ {
		mc.M.Mem.WriteWord((lo + hw.PFN(i)).Addr(), 0xC0DE0000|uint32(i))
	}
	lcfg := migrate.LiveConfig{Inject: ctx.Migrate}
	// The victim keeps dirtying a trickle of pages while pre-copy runs,
	// so round-indexed faults (the link stall) have traffic to hit.
	lcfg.Mutator = func(round int) {
		for i := 0; i < 8; i++ {
			pfn := lo + hw.PFN((round*5+i)%victimFrames)
			mc.M.Mem.WriteWord(pfn.Addr()+8, uint32(round*100+i))
		}
	}
	srcDoms := len(mc.VMM.Domains)
	dstDoms := len(cfg.Standby.V.Domains)

	moved, _, merr := migrate.Live(ctx.C, mc.VMM, mc.Dom, victim,
		cfg.Standby.V, cfg.Standby.Dom0, lcfg)
	if merr != nil {
		ep.Detected = true
		ep.RolledBack = true
		ep.Detail = merr.Error()
		// The rollback contract: nothing leaked, nothing left paused.
		if _, ok := mc.VMM.Domains[victim.ID]; !ok {
			return fmt.Errorf("rollback lost the source domain")
		}
		if victim.State != xen.DomRunning {
			return fmt.Errorf("source domain left in state %v", victim.State)
		}
		if n := len(mc.VMM.Domains); n != srcDoms {
			return fmt.Errorf("source VMM has %d domains after rollback, want %d", n, srcDoms)
		}
		if n := len(cfg.Standby.V.Domains); n != dstDoms {
			return fmt.Errorf("destination VMM has %d domains after rollback, want %d — a leak", n, dstDoms)
		}
		if mc.M.Mem.DirtyLogEnabled() {
			return fmt.Errorf("dirty log left armed after rollback")
		}
		act.Undo()
		// With the fault removed the retry must commit — an aborted
		// maintenance window is postponed, not lost.
		moved, _, merr = migrate.Live(ctx.C, mc.VMM, mc.Dom, victim,
			cfg.Standby.V, cfg.Standby.Dom0, lcfg)
		if merr != nil {
			return fmt.Errorf("retry after undo: %w", merr)
		}
	} else {
		// The migration committed despite the fault: a detector gap.
		// (Still clean up so the campaign can continue.)
		act.Undo()
	}
	if err := cfg.Standby.V.DestroyDomain(moved.ID); err != nil {
		return fmt.Errorf("releasing migrated domain on standby: %w", err)
	}
	if wasNative {
		if err := mc.SwitchSync(ctx.C, core.ModeNative); err != nil {
			return fmt.Errorf("detaching after migration episode: %w", err)
		}
	}
	if merr == nil && ep.Detected {
		ep.Healed = true
	}
	return nil
}
