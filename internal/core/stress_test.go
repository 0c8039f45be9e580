package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guest"
)

// TestSwitchStressUnderPTChurn drives repeated attach/detach cycles
// while a forked worker churns page tables on the other CPU, for every
// tracking policy — the seeded race-stress companion to the chaos
// campaigns, meant to run under -race. The switches interleave with
// mmap/touch/munmap and mprotect traffic, so the recompute shards, the
// active mirror, and the journal (including its structural-degradation
// fallback) all see concurrent native-mode activity.
func TestSwitchStressUnderPTChurn(t *testing.T) {
	for _, policy := range []TrackingPolicy{TrackRecompute, TrackActive, TrackJournal} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			mc := newMercury(t, 2, policy)
			k := mc.K
			boot := mc.M.BootCPU()

			var failed error
			k.Spawn(boot, "driver", guest.DefaultImage("driver"), func(p *guest.Proc) {
				p.Fork("churn", func(cp *guest.Proc) {
					for i := 0; i < 10; i++ {
						pages := 4 + rng.Intn(8)
						base := cp.Mmap(pages, guest.ProtRead|guest.ProtWrite, true)
						cp.Touch(base, pages, true)
						cp.Mprotect(base, guest.ProtRead)
						cp.Mprotect(base, guest.ProtRead|guest.ProtWrite)
						cp.Munmap(base)
					}
					cp.Exit(0)
				})
				steady := p.Mmap(16, guest.ProtRead|guest.ProtWrite, true)
				for i := 0; i < 6; i++ {
					if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
						failed = fmt.Errorf("attach %d: %w", i, err)
						return
					}
					p.Touch(steady, 16, true)
					if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
						failed = fmt.Errorf("detach %d: %w", i, err)
						return
					}
					// Native-mode leaf rewrites: journaled dirty traffic.
					p.Mprotect(steady, guest.ProtRead)
					p.Mprotect(steady, guest.ProtRead|guest.ProtWrite)
				}
				p.Wait()
				if err := mc.CheckInvariants(p.CPU()); err != nil {
					failed = err
				}
			})
			mc.M.Run(k.Run)
			if failed != nil {
				t.Fatal(failed)
			}
			if mc.Mode() != ModeNative {
				t.Fatalf("final mode %v", mc.Mode())
			}
		})
	}
}

// TestJournalPolicySwitchRoundTrip covers the journal policy through the
// full engine path: first attach falls back, a dirtied re-attach
// replays, and the frame accounting stays invariant-clean throughout.
func TestJournalPolicySwitchRoundTrip(t *testing.T) {
	mc := newMercury(t, 1, TrackJournal)
	k := mc.K
	boot := mc.M.BootCPU()
	j := mc.VMM.Journal()
	if j == nil {
		t.Fatal("journal policy did not install a journal")
	}

	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		base := p.Mmap(40, guest.ProtRead|guest.ProtWrite, true)
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
		// ~10% dirty: pure leaf rewrites, no structural change.
		p.Mprotect(base, guest.ProtRead)
		p.Mprotect(base, guest.ProtRead|guest.ProtWrite)
		if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := mc.CheckInvariants(p.CPU()); err != nil {
			panic(err)
		}
		if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
			panic(err)
		}
	})
	k.Run(boot)

	st := j.StatsSnapshot()
	if st.Fallbacks == 0 {
		t.Fatalf("first attach should fall back: %+v", st)
	}
	if st.Replays == 0 {
		t.Fatalf("dirtied re-attach should replay: %+v", st)
	}
	if err := mc.CheckInvariants(boot); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDetachLeavesNothingPinned: a journal detach keeps the
// table's epoch, so on an M-N Mercury of one or two CPUs nothing is
// pinned while native, and CheckInvariants, which holds the journal
// policy to that too, passes after the detach and after native churn.
// The re-attach replays the churn.
func TestJournalDetachLeavesNothingPinned(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("cpus=%d", ncpu), func(t *testing.T) {
			mc := newMercury(t, ncpu, TrackJournal)
			k := mc.K
			var failed error
			check := func(p *guest.Proc, when string) {
				if failed != nil {
					return
				}
				if pfn, ok := mc.VMM.FT.FirstPinned(); ok {
					failed = fmt.Errorf("%s: frame %d pinned while native", when, pfn)
				} else if err := mc.CheckInvariants(p.CPU()); err != nil {
					failed = fmt.Errorf("%s: %w", when, err)
				}
			}
			k.Spawn(mc.M.BootCPU(), "app", guest.DefaultImage("app"), func(p *guest.Proc) {
				base := p.Mmap(32, guest.ProtRead|guest.ProtWrite, true)
				p.Touch(base, 32, true)
				for i := 0; i < 2 && failed == nil; i++ {
					if err := mc.SwitchSync(p.CPU(), ModePartialVirtual); err != nil {
						failed = err
						return
					}
					if err := mc.SwitchSync(p.CPU(), ModeNative); err != nil {
						failed = err
						return
					}
					check(p, "after the detach")
					p.Mprotect(base, guest.ProtRead)
					p.Mprotect(base, guest.ProtRead|guest.ProtWrite)
					check(p, "after native churn")
				}
			})
			mc.M.Run(k.Run)
			if failed != nil {
				t.Fatal(failed)
			}
			if st := mc.VMM.Journal().StatsSnapshot(); st.Replays != 1 {
				t.Fatalf("the second attach did not replay: %+v", st)
			}
		})
	}
}
