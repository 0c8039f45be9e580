package core

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hw"
)

// Live kernel update (§6.4). LUCOS needed a permanently resident VMM to
// patch a running kernel; with self-virtualization the VMM is attached
// only for the duration of the update and detached afterwards, so the
// update window is the only time any virtualization overhead is paid.

// KernelPatch is one live update: Apply rewrites kernel code/data (here:
// entries of the kernel's dispatch tables and handlers), Validate checks
// the patched kernel before the VMM steps away.
type KernelPatch struct {
	Name     string
	Apply    func(k *guest.Kernel) error
	Validate func(k *guest.Kernel) error
}

// UpdateReport describes one completed live update.
type UpdateReport struct {
	Patch         string
	AttachedForUS float64 // how long the VMM was resident (us)
	WasNative     bool
}

// LiveUpdate applies a patch to the running kernel under VMM
// supervision: if the system is in native mode the VMM is attached
// first and detached afterwards, so steady-state execution stays on
// bare hardware.
func (mc *Mercury) LiveUpdate(c *hw.CPU, patch KernelPatch) (*UpdateReport, error) {
	if patch.Apply == nil {
		return nil, fmt.Errorf("core: patch %q has no Apply", patch.Name)
	}
	rep := &UpdateReport{Patch: patch.Name, WasNative: mc.Mode() == ModeNative}
	if rep.WasNative {
		if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
			return nil, fmt.Errorf("core: attaching for update: %w", err)
		}
	}
	attachedAt := c.Now()

	// abort must leave the system exactly as it found it: detach, then
	// verify — a failed update that also strands the VMM resident is two
	// failures, and both get reported.
	abort := func(err error) (*UpdateReport, error) {
		if rep.WasNative {
			if derr := mc.SwitchSync(c, ModeNative); derr != nil {
				return nil, fmt.Errorf("%v; rollback detach: %w", err, derr)
			}
			if verr := mc.CheckInvariants(c); verr != nil {
				return nil, fmt.Errorf("%v; post-abort invariants: %w", err, verr)
			}
		}
		return nil, err
	}

	// The VMM holds the kernel quiescent: in this simulation the caller
	// is the only activity, and the refcount gate already guaranteed no
	// sensitive code was in flight at attach.
	if err := patch.Apply(mc.K); err != nil {
		return abort(fmt.Errorf("core: applying %q: %w", patch.Name, err))
	}
	// Patched trap handlers must be re-registered with the VMM (and will
	// be reloaded into the hardware IDT at detach).
	if err := mc.VMM.HypSetTrapTable(c, mc.Dom, mc.K.AppendTrapGates(nil)); err != nil {
		return abort(fmt.Errorf("core: registering %q's trap table: %w", patch.Name, err))
	}
	if patch.Validate != nil {
		if err := patch.Validate(mc.K); err != nil {
			err = fmt.Errorf("core: validating %q: %w", patch.Name, err)
			// The VMM stays resident (the operator gets to inspect the
			// rejected kernel), but the abort still owes a verdict: the
			// attached system must verify clean for its current mode.
			if verr := mc.CheckInvariants(c); verr != nil {
				return nil, fmt.Errorf("%v; post-abort invariants: %w", err, verr)
			}
			return nil, err
		}
	}

	rep.AttachedForUS = float64(c.Now()-attachedAt) / float64(mc.M.Hz) * 1e6
	if rep.WasNative {
		if err := mc.SwitchSync(c, ModeNative); err != nil {
			return nil, fmt.Errorf("core: detaching after update: %w", err)
		}
	}
	return rep, nil
}
