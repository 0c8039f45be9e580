package core

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/hw"
)

// TestFailureResistantSwitch exercises the §8 extension: a mode switch
// requested while the OS is in an inconsistent state (a page-table page
// reachable writable) fails validation, rolls back completely, and
// leaves the system running in native mode; after the state is repaired
// the switch succeeds.
func TestFailureResistantSwitch(t *testing.T) {
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

		// The switch must fail — and not take the system down.
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err == nil {
			panic("switch succeeded on a corrupted kernel")
		}
		if mc.Mode() != ModeNative {
			panic("failed switch changed the mode")
		}
		if mc.VMM.Active {
			panic("failed switch left the VMM active")
		}
		if mc.Stats.FailedSwitches.Load() != 1 {
			panic("failure not counted")
		}
		if mc.LastSwitchError() == nil {
			panic("failure not recorded")
		}
		// Hardware control state rolled back to the kernel's.
		if p.CPU().IDTR != k.IDT {
			panic("hardware IDT not restored after rollback")
		}
		// Frame accounting fully unwound.
		if err := mc.VMM.FT.CheckInvariants(); err != nil {
			panic(err)
		}

		// The system is still fully functional in native mode.
		p.Touch(base, 8, true)

		// Repair, then also prove process creation still works (forking
		// *with* the corruption in place would clone the bad mapping —
		// the corruption is the kernel's problem, not the switch's).
		undo()
		p.Fork("child", func(cp *guest.Proc) { cp.Exit(0) })
		p.Wait()
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if mc.LastSwitchError() != nil {
			panic("stale error after successful switch")
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
		p.Munmap(base)
	})
	k.Run(boot)

	// After detach every frame's accounting is zero: the failed attempt
	// leaked nothing.
	for pfn := hw.PFN(0); pfn < mc.M.Mem.NumFrames(); pfn++ {
		fi := mc.VMM.FT.Get(pfn)
		if fi.TypeCount != 0 || fi.TotalRefs != 0 || fi.Pinned {
			t.Fatalf("frame %d retains accounting: %+v", pfn, fi)
		}
	}
}

// TestFailureResistantSwitchKeptTable runs the §8 failure path through
// the attach's rule: a detach keeps the frame table, the kernel then
// plants a writable mapping of one of its own page tables while native,
// and the next attach must fail and roll back exactly as the forced walk
// does, at the same cycle. The rule's replay refuses the planted entry
// before charging anything and hands the attach to the walk, which
// fails on it. After the undo the retry commits.
func TestFailureResistantSwitchKeptTable(t *testing.T) {
	type outcome struct {
		failedAt, doneAt hw.Cycles
		ruled            uint64
	}
	run := func(forceWalk bool) outcome {
		mc := newMercury(t, 1, TrackRecompute)
		k := mc.K
		boot := mc.M.BootCPU()
		var out outcome
		k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
			base := p.Mmap(8, guest.ProtRead|guest.ProtWrite, true)
			p.Touch(base, 8, true)
			for range 2 { // the second attach restores what the first detach kept
				if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
					panic(err)
				}
				if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
					panic(err)
				}
			}
			if forceWalk {
				// Handing a frame to the owner it has leaves the kept
				// table nothing to restore.
				mc.VMM.FT.SetOwner(p.AS.PT.Root, mc.Dom.ID)
			}
			undo, err := p.AS.CorruptPageTableMappingPick(func(n int) int { return n - 1 })
			if err != nil {
				panic(err)
			}
			if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err == nil {
				panic("switch succeeded on a corrupted kernel")
			}
			out.failedAt = p.CPU().Now()
			if mc.Mode() != ModeNative || mc.VMM.Active {
				panic("failed switch left the VMM attached")
			}
			if err := mc.VMM.FT.CheckInvariants(); err != nil {
				panic(err)
			}
			if pfn, ok := mc.VMM.FT.FirstPinned(); ok {
				panic(fmt.Sprintf("failed switch left frame %d pinned", pfn))
			}
			undo()
			if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
				panic(fmt.Sprintf("retry after undo: %v", err))
			}
			if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
				panic(err)
			}
			out.doneAt = p.CPU().Now()
		})
		k.Run(boot)
		if got := mc.Stats.FailedSwitches.Load(); got != 1 {
			t.Fatalf("failed switches = %d, want 1", got)
		}
		out.ruled = mc.VMM.Stats.RuleAttaches.Load()
		return out
	}
	rule, walk := run(false), run(true)
	if rule != walk {
		t.Fatalf("by the rule %+v, by the forced walk %+v", rule, walk)
	}
	if rule.ruled != 1 {
		t.Fatalf("%d attaches restored a kept table, want 1 (the clean second attach)", rule.ruled)
	}
}

// TestFailedSwitchRollbackUnderSMP runs the same failure path with a
// second CPU in the rendezvous.
func TestFailedSwitchRollbackUnderSMP(t *testing.T) {
	mc := newMercury(t, 2, TrackRecompute)
	k := mc.K
	boot := mc.M.BootCPU()

	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		base := p.Mmap(4, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 4, true)
		undo, err := p.AS.CorruptPageTableMapping()
		if err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err == nil {
			panic("corrupted switch succeeded")
		}
		undo()
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	mc.M.Run(k.Run)

	// Every CPU ends on the kernel's tables.
	for _, c := range mc.M.CPUs {
		if c.IDTR != k.IDT {
			t.Fatalf("cpu%d IDT not the kernel's", c.ID)
		}
	}
	if got := mc.Stats.FailedSwitches.Load(); got != 1 {
		t.Fatalf("failed switches = %d", got)
	}
}
