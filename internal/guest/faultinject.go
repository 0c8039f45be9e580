package guest

import (
	"fmt"

	"repro/internal/hw"
)

// Fault injection for dependability testing: ways to put the kernel
// into the "incorrect state" the paper's future-work section worries a
// mode switch might encounter (§8), so the failure-resistant switch can
// be exercised.

// CorruptPageTableMapping plants, behind the kernel's back, a writable
// leaf mapping of one of this address space's own page-table frames —
// precisely the state the VMM's frame validation must reject, since a
// writable page-table page would let the (possibly compromised) kernel
// forge mappings. Returns an undo function that removes the corruption.
// The first present page directory entry is the victim; seeded campaigns
// use CorruptPageTableMappingPick instead.
func (as *AddrSpace) CorruptPageTableMapping() (undo func(), err error) {
	return as.CorruptPageTableMappingPick(func(int) int { return 0 })
}

// CorruptPageTableMappingPick is CorruptPageTableMapping with the victim
// page table chosen by pick(n) over the n present page-directory entries
// — the hook a seeded chaos campaign uses so the corruption site varies
// deterministically with the seed.
func (as *AddrSpace) CorruptPageTableMappingPick(pick func(n int) int) (undo func(), err error) {
	mem := as.K.M.Mem
	// The L1 frames of the present page directory entries are the
	// candidate victims.
	tables := as.PT.TableFrames()[1:]
	if len(tables) == 0 {
		return nil, fmt.Errorf("guest: address space has no page tables to corrupt")
	}
	pt := tables[pick(len(tables))%len(tables)]
	// Find a free slot in that same table and map the table itself,
	// writable.
	table := hw.ViewTable(mem, pt)
	for idx := hw.PTEntries - 1; idx >= 0; idx-- {
		if table.At(idx).Present() {
			continue
		}
		hw.WritePTE(mem, pt, idx,
			hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
		slot := idx
		return func() { hw.WritePTE(mem, pt, slot, 0) }, nil
	}
	return nil, fmt.Errorf("guest: no free slot for corruption")
}

// ghostPid identifies the fabricated process InjectStaleSelector plants.
// Negative so it can never collide with a real Pid.
const ghostPid Pid = -2

// InjectStaleSelector plants a fake descheduled thread whose cached
// kernel-stack interrupt frame carries segment selectors at a privilege
// level no mode ever uses (RPL 2) — the stale-selector state §5.1.2's
// fixup stub exists to prevent, injected directly so the invariant
// checker can be exercised. The ghost is never runnable and owns no
// address space; the undo function removes it. Both run in guest context
// on the CPU they are given.
func (k *Kernel) InjectStaleSelector(c *hw.CPU) (undo func(c *hw.CPU), err error) {
	k.lk.Lock(c)
	defer k.lk.Unlock(c)
	if _, ok := k.procs[ghostPid]; ok {
		return nil, fmt.Errorf("guest: stale-selector ghost already injected")
	}
	const staleRPL = 2 // between kernel (0/1) and user (3): wrong in every mode
	ghost := &Proc{
		Pid:  ghostPid,
		Name: "ghost",
		K:    k,
		SavedFrames: []*hw.TrapFrame{{
			CS: hw.MakeSelector(hw.GDTKernelCode, staleRPL),
			SS: hw.MakeSelector(hw.GDTKernelData, staleRPL),
		}},
	}
	ghost.setState(ProcBlocked)
	k.procs[ghostPid] = ghost
	return func(c *hw.CPU) {
		k.lk.Lock(c)
		delete(k.procs, ghostPid)
		k.lk.Unlock(c)
	}, nil
}
