package bench

import (
	"fmt"
	"io"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/vo"
	"repro/internal/workloads"
	"repro/internal/xen"
)

// Two further design-choice ablations called out in DESIGN.md.

// BatchingAblationResult quantifies mmu_update multicall batching: one
// world switch amortized over a whole batch versus one world switch per
// entry. Xen-Linux batches where it can (mmap populate, multicalls);
// paths that cannot batch (demand faults, 2.6.16-era fork copies) pay
// per entry — the difference below is why that matters.
type BatchingAblationResult struct {
	Entries       int
	BatchedUS     float64
	PerEntryUS    float64
	SpeedupFactor float64
}

// BatchingAblation installs the same set of entries both ways on a live
// pinned tree under an active VMM.
func BatchingAblation() (BatchingAblationResult, error) {
	res := BatchingAblationResult{Entries: 512}

	run := func(batched bool) (float64, error) {
		s, err := Build(X0, Options{})
		if err != nil {
			return 0, err
		}
		var us float64
		s.Run("batching", func(p *guest.Proc) {
			k := p.K
			c := p.CPU()
			// A live leaf table to fill: map one page so the table and
			// its pin exist, then write the remaining slots directly
			// through the virtualization object.
			base := p.Mmap(1, guest.ProtRead|guest.ProtWrite, true)
			slot, ok := p.AS.PT.ExistingSlot(base)
			if !ok {
				panic("no slot")
			}
			updates := make([]xen.MMUUpdate, 0, res.Entries)
			for i := 0; i < res.Entries; i++ {
				idx := (slot.Index + 1 + i) % hw.PTEntries
				if idx == slot.Index {
					continue
				}
				pfn := k.Frames.Alloc()
				updates = append(updates, xen.MMUUpdate{Table: slot.Table, Index: idx,
					New: hw.MakePTE(pfn, hw.PTEPresent|hw.PTEUser)})
			}
			start := c.Now()
			if batched {
				k.VO().WritePTEBatch(c, updates)
			} else {
				for _, u := range updates {
					k.VO().WritePTE(c, u.Table, u.Index, u.New)
				}
			}
			us = s.Micros(c.Now() - start)
			// Clear the raw entries again (they bypassed the kernel's
			// page accounting) and return the frames.
			clear := make([]xen.MMUUpdate, len(updates))
			for i, u := range updates {
				clear[i] = xen.MMUUpdate{Table: u.Table, Index: u.Index}
			}
			k.VO().WritePTEBatch(c, clear)
			for _, u := range updates {
				k.Frames.Free(u.New.Frame())
			}
			p.Munmap(base)
		})
		return us, nil
	}

	var err error
	if res.BatchedUS, err = run(true); err != nil {
		return res, err
	}
	if res.PerEntryUS, err = run(false); err != nil {
		return res, err
	}
	res.SpeedupFactor = res.PerEntryUS / res.BatchedUS
	return res, nil
}

// WriteBatchingAblation renders the comparison.
func WriteBatchingAblation(w io.Writer, r BatchingAblationResult) {
	fmt.Fprintln(w, "mmu_update batching ablation (multicalls vs one hypercall per entry):")
	fmt.Fprintf(w, "  %d entries, batched   : %10.1f us\n", r.Entries, r.BatchedUS)
	fmt.Fprintf(w, "  %d entries, per entry : %10.1f us  (%.1fx slower)\n",
		r.Entries, r.PerEntryUS, r.SpeedupFactor)
}

// EmulationAblationResult compares the two ways a virtualized kernel's
// single-entry page-table stores can reach the VMM (§5.3): an explicit
// hypercall (the VO approach) or trap-and-emulation of a direct store
// (no call-site modification, but a full fault round trip per write).
type EmulationAblationResult struct {
	Entries      int
	HypercallUS  float64
	TrapEmulUS   float64
	PenaltyRatio float64
}

// EmulationAblation performs the same single-entry stores both ways.
func EmulationAblation() (EmulationAblationResult, error) {
	res := EmulationAblationResult{Entries: 256}

	run := func(trap bool) (float64, error) {
		s, err := Build(X0, Options{})
		if err != nil {
			return 0, err
		}
		vobj := s.K.VO().(*vo.Virtual)
		vobj.TrapEmulate = trap
		var us float64
		s.Run("emul", func(p *guest.Proc) {
			k := p.K
			c := p.CPU()
			base := p.Mmap(1, guest.ProtRead|guest.ProtWrite, true)
			slot, _ := p.AS.PT.ExistingSlot(base)
			frames := make([]hw.PFN, res.Entries)
			for i := range frames {
				frames[i] = k.Frames.Alloc()
			}
			start := c.Now()
			for i, pfn := range frames {
				idx := (slot.Index + 1 + i) % hw.PTEntries
				k.VO().WritePTE(c, slot.Table, idx,
					hw.MakePTE(pfn, hw.PTEPresent|hw.PTEUser))
			}
			us = s.Micros(c.Now() - start)
			for i, pfn := range frames {
				idx := (slot.Index + 1 + i) % hw.PTEntries
				k.VO().WritePTE(c, slot.Table, idx, 0)
				k.Frames.Free(pfn)
			}
			p.Munmap(base)
		})
		return us, nil
	}
	var err error
	if res.HypercallUS, err = run(false); err != nil {
		return res, err
	}
	if res.TrapEmulUS, err = run(true); err != nil {
		return res, err
	}
	res.PenaltyRatio = res.TrapEmulUS / res.HypercallUS
	return res, nil
}

// WriteEmulationAblation renders the comparison.
func WriteEmulationAblation(w io.Writer, r EmulationAblationResult) {
	fmt.Fprintln(w, "Sensitive-store path ablation (S5.3: hypercall vs trap-and-emulate):")
	fmt.Fprintf(w, "  %d stores via hypercall      : %10.1f us\n", r.Entries, r.HypercallUS)
	fmt.Fprintf(w, "  %d stores via trap-emulation : %10.1f us  (%.2fx)\n",
		r.Entries, r.TrapEmulUS, r.PenaltyRatio)
}

// AddrSpaceAblationResult quantifies the unified address-space layout of
// §3.2.2: because the VMM lives in a reserved hole of every address
// space, entering it costs no TLB flush. If the VMM lived in its own
// address space, every world switch would flush the TLB and the guest
// would re-fault its working set afterwards.
type AddrSpaceAblationResult struct {
	SharedForkUS   float64 // fork latency, VMM in the shared hole
	SeparateForkUS float64 // fork latency, VMM in its own address space
	SharedCtxUS    float64
	SeparateCtxUS  float64
}

// AddrSpaceAblation runs the fork and context-switch microbenchmarks on
// X-0 under both layouts; the separate-space layout is modeled by adding
// a TLB flush plus working-set refill to every world switch.
func AddrSpaceAblation() (AddrSpaceAblationResult, error) {
	var res AddrSpaceAblationResult

	run := func(separate bool) (fork, ctx float64, err error) {
		costs := hw.DefaultCosts()
		if separate {
			// Every guest<->VMM crossing now pays an address-space
			// switch: full TLB flush plus re-touching the hot working
			// set (8 pages) on return.
			costs.WorldSwitch += costs.TLBFlush + 8*costs.TLBRefillPage
		}
		s, err := Build(X0, Options{Costs: costs})
		if err != nil {
			return 0, 0, err
		}
		r := workloads.Lmbench(s.Target())
		return r.ForkProc, r.Ctx2p0k, nil
	}

	var err error
	if res.SharedForkUS, res.SharedCtxUS, err = run(false); err != nil {
		return res, err
	}
	if res.SeparateForkUS, res.SeparateCtxUS, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// WriteAddrSpaceAblation renders the comparison.
func WriteAddrSpaceAblation(w io.Writer, r AddrSpaceAblationResult) {
	fmt.Fprintln(w, "Address-space layout ablation (S3.2.2: VMM in a reserved hole")
	fmt.Fprintln(w, "of every address space vs its own address space):")
	fmt.Fprintf(w, "  fork, shared layout   : %10.1f us\n", r.SharedForkUS)
	fmt.Fprintf(w, "  fork, separate space  : %10.1f us  (+%.0f%%)\n",
		r.SeparateForkUS, (r.SeparateForkUS/r.SharedForkUS-1)*100)
	fmt.Fprintf(w, "  ctx 2p/0k, shared     : %10.2f us\n", r.SharedCtxUS)
	fmt.Fprintf(w, "  ctx 2p/0k, separate   : %10.2f us  (+%.0f%%)\n",
		r.SeparateCtxUS, (r.SeparateCtxUS/r.SharedCtxUS-1)*100)
}
