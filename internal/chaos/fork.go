package chaos

import (
	"fmt"
	"strings"

	"repro/internal/fork"
	"repro/internal/hw"
	"repro/internal/xen"
)

// ForkEnv is the snapshot-cache node the store-detected faults attack:
// its own host holding a warmed base image, from which every probe
// forks, dirties, delta-checkpoints, and destroys a clone. The probe's
// verdict comes from the store's own defenses — content verification
// (Store.Verify) and the refcount audit (fork.AuditRefs).
type ForkEnv struct {
	*xen.Host
	CB *fork.CloneBase

	probes int
}

// forkTemplatePages is the template's data pages (its page-table tree
// sits just above them), and forkClones the clones its host has room
// for at once.
const (
	forkTemplatePages = 40
	forkClones        = 24
)

// NewForkEnv boots a snapshot-cache node: fork.NewTemplate's host and
// template, whose checkpoint is warmed into a fresh content-addressed
// store as the base image clones fork from.
func NewForkEnv() (*ForkEnv, error) {
	h, cb, err := fork.NewTemplate(forkTemplatePages, forkClones)
	if err != nil {
		return nil, fmt.Errorf("chaos: booting fork node: %w", err)
	}
	return &ForkEnv{Host: h, CB: cb}, nil
}

// Probe runs one full fork lifecycle — clone, dirty, delta checkpoint,
// destroy, release — and then lets the store judge itself: Verify
// re-hashes every frame and AuditRefs balances the refcounts against
// the base image. The returned anomaly is non-empty when a defense
// tripped (the fault was detected); a non-nil error means an invariant
// the fork machinery itself must uphold broke (a rollback leak, a
// failed teardown) — never acceptable, fault or no fault.
func (fe *ForkEnv) Probe() (anomaly string, err error) {
	fe.probes++
	domsBefore := len(fe.V.Domains)

	cs, cerr := fork.Clone(fe.C, fe.V, fe.Dom0, fe.CB, fmt.Sprintf("probe-%d", fe.probes))
	if cerr != nil {
		// The clone aborted: its transaction must have unwound cleanly —
		// no leaked domain, no stray CoW mappings, balanced refcounts.
		if n := len(fe.V.Domains); n != domsBefore {
			return "", fmt.Errorf("chaos: aborted clone left %d domains, want %d", n, domsBefore)
		}
		if n := fe.V.M.Mem.SharedFrames(); n != 0 {
			return "", fmt.Errorf("chaos: aborted clone left %d CoW mappings", n)
		}
		if aerr := fork.AuditRefs(fe.CB.Store, fe.CB.Img); aerr != nil {
			return "", fmt.Errorf("chaos: aborted clone leaked store refs: %w", aerr)
		}
		return "clone aborted, rollback clean: " + cerr.Error(), nil
	}
	// Dirty a few frames so the delta has content.
	for i := 0; i < 3; i++ {
		fe.V.M.Mem.WriteWord((cs.Lo + hw.PFN(10+i)).Addr(), 0xD117_0000|uint32(fe.probes<<4|i))
	}
	o, derr := fork.CheckpointDelta(fe.C, fe.V, fe.Dom0, cs)
	if derr != nil {
		_ = fork.DestroyClone(fe.C, fe.V, fe.Dom0, cs)
		return "", fmt.Errorf("chaos: delta checkpoint: %w", derr)
	}
	if err := fork.DestroyClone(fe.C, fe.V, fe.Dom0, cs); err != nil {
		return "", fmt.Errorf("chaos: destroying probe clone: %w", err)
	}
	if err := o.Release(); err != nil {
		return "", fmt.Errorf("chaos: releasing probe overlay: %w", err)
	}
	if n := fe.V.M.Mem.SharedFrames(); n != 0 {
		return "", fmt.Errorf("chaos: probe left %d CoW mappings", n)
	}
	// The store's own defenses deliver the verdict.
	if verr := fe.CB.Store.Verify(); verr != nil {
		return verr.Error(), nil
	}
	if aerr := fork.AuditRefs(fe.CB.Store, fe.CB.Img); aerr != nil {
		return aerr.Error(), nil
	}
	return "", nil
}

// ForkFaults returns the fault classes aimed at the snapshot cache.
// They need a fork environment, so Run only adds them to the default
// catalog when cfg.Fork is set. Each is expected to be caught by the
// store's defenses (DetectStore): content verification, the refcount
// audit, or the clone transaction's rollback.
func ForkFaults() []*Fault {
	return []*Fault{
		{
			// A flipped byte inside a stored frame: every clone mapping
			// that content reads the corruption. Verify must catch it.
			Name: "fork-store-corruption", Layer: LayerHW, Detector: DetectStore,
			Inject: func(ctx *Ctx) (*Active, error) {
				undo, err := ctx.Fork.CB.Store.CorruptFramePick(ctx.Rand.Intn)
				if err != nil {
					return nil, err
				}
				return &Active{Undo: undo}, nil
			},
		},
		{
			// An unowned extra reference on a stored frame (the classic
			// leak: a teardown path that forgets a Release would look
			// identical). The refcount audit must catch the imbalance.
			Name: "fork-store-refleak", Layer: LayerVMM, Detector: DetectStore,
			Inject: func(ctx *Ctx) (*Active, error) {
				undo, err := ctx.Fork.CB.Store.LeakRefPick(ctx.Rand.Intn)
				if err != nil {
					return nil, err
				}
				return &Active{Undo: undo}, nil
			},
		},
		{
			// A transiently failing pin hypercall mid-clone: the fork
			// transaction must abort, releasing every mapped frame's
			// reference, and the retry must commit.
			Name: "fork-pin-fail", Layer: LayerVMM, Detector: DetectStore,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.Fork.V.InjectPinFailures(1)
				return &Active{Undo: func() { ctx.Fork.V.InjectPinFailures(0) }}, nil
			},
		},
	}
}

// detectStore expects the snapshot cache's own defenses to report the
// fault: a probe (clone → dirty → delta → destroy → audit/verify) must
// surface an anomaly while the fault is active, and run completely
// clean once it is removed.
func detectStore(ctx *Ctx, cfg Config, ep *Episode, act *Active) error {
	fe := cfg.Fork
	if fe == nil {
		return fmt.Errorf("store fault needs a fork environment")
	}
	anomaly, err := fe.Probe()
	if err != nil {
		return err
	}
	if anomaly != "" {
		ep.Detected = true
		ep.Detail = anomaly
		if strings.HasPrefix(anomaly, "clone aborted") {
			ep.RolledBack = true
		}
	}
	act.Undo()
	// With the fault removed the full lifecycle must run clean — and for
	// the rollback case, the retry must commit.
	clean, err := fe.Probe()
	if err != nil {
		return fmt.Errorf("probe after undo: %w", err)
	}
	if clean != "" {
		return fmt.Errorf("fault survived undo: %s", clean)
	}
	if ep.Detected {
		ep.Healed = true
	}
	return nil
}
