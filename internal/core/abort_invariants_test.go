package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/guest"
)

// The abort paths get the same verdict the commit paths do: after any
// rolled-back switch or aborted update, the full invariant oracle must
// pass — and SwitchSync now runs it itself, joining any breach onto
// the abort's own error.

// TestFailedSwitchAbortVerified: a transiently failing pin hypercall
// kills the attach mid-way; the rollback must restore a state the
// oracle accepts, so the reported error carries no invariant breach.
func TestFailedSwitchAbortVerified(t *testing.T) {
	mc := newMercury(t, 2, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()

	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 8, true)

		mc.VMM.InjectPinFailures(1)
		err := mc.SwitchSync(p.CPU(), ModePartialVirtual)
		mc.VMM.InjectPinFailures(0)
		if err == nil {
			panic("switch survived the injected pin failure")
		}
		// The oracle ran inside SwitchSync and found nothing: the abort
		// error is the injection alone, with no joined breach.
		if strings.Contains(err.Error(), "post-rollback invariants") {
			panic(fmt.Sprintf("rollback left inconsistent state: %v", err))
		}
		if verr := mc.CheckInvariants(p.CPU()); verr != nil {
			panic(fmt.Sprintf("invariants after rollback: %v", verr))
		}
		// The failure is not fatal: the retry commits.
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	mc.M.Run(k.Run)
}

// TestMidAbortFaultInvariantsGreen: the fault that killed the switch
// stays armed while the rollback unwinds (the mid-abort fault), and
// the system must still verify clean before the fault is ever lifted —
// the rollback may not lean on the undo.
func TestMidAbortFaultInvariantsGreen(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()

	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 8, true)

		undo, err := p.AS.CorruptPageTableMapping()
		if err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err == nil {
			panic("switch succeeded on a corrupted kernel")
		}
		// The corruption is still armed: the rollback must have
		// restored everything the oracle checks regardless.
		if verr := mc.CheckInvariants(p.CPU()); verr != nil {
			panic(fmt.Sprintf("invariants with fault still armed: %v", verr))
		}
		undo()
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	k.Run(boot)
}

// TestLiveUpdateAbortPathsVerified drives both LiveUpdate abort paths:
// a failing Apply (detach-and-verify) and a failing Validate (stay
// attached, verify in place).
func TestLiveUpdateAbortPathsVerified(t *testing.T) {
	mc := newMercury(t, 1, TrackRecompute)
	c := mc.M.BootCPU()

	_, err := mc.LiveUpdate(c, KernelPatch{
		Name:  "bad-apply",
		Apply: func(k *guest.Kernel) error { return fmt.Errorf("nope") },
	})
	if err == nil {
		t.Fatal("failed apply reported success")
	}
	if strings.Contains(err.Error(), "post-abort invariants") {
		t.Fatalf("apply abort left inconsistent state: %v", err)
	}
	if mc.Mode() != ModeNative {
		t.Fatal("failed update left the VMM attached")
	}
	if verr := mc.CheckInvariants(c); verr != nil {
		t.Fatalf("invariants after apply abort: %v", verr)
	}

	_, err = mc.LiveUpdate(c, KernelPatch{
		Name:     "bad-validate",
		Apply:    func(k *guest.Kernel) error { return nil },
		Validate: func(k *guest.Kernel) error { return fmt.Errorf("rejected") },
	})
	if err == nil {
		t.Fatal("failed validate reported success")
	}
	if strings.Contains(err.Error(), "post-abort invariants") {
		t.Fatalf("validate abort left inconsistent state: %v", err)
	}
	// Validate failure deliberately keeps the VMM resident for
	// inspection; the attached system verified clean, and the operator
	// (this test) detaches.
	if mc.Mode() == ModeNative {
		t.Fatal("validate failure should keep the VMM attached")
	}
	if err := mc.SwitchSync(c, ModeNative); err != nil {
		t.Fatal(err)
	}
	if verr := mc.CheckInvariants(c); verr != nil {
		t.Fatalf("invariants after operator detach: %v", verr)
	}
}
