package vo

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/xen"
)

// Tracker is the active-tracking policy (§5.1.2 "first approach"): in
// native mode, every page-table store is mirrored into the pre-cached
// VMM's frame table. Costs 2–3 % in native mode but makes the
// native->virtual switch skip the frame-info recompute.
type Tracker struct {
	V *xen.VMM
	D *xen.Domain
}

// Native is Mercury's native-mode virtualization object: the Direct
// operation bodies invoked through the object table, with entry/exit
// reference counting so the mode-switch machinery can tell when the
// kernel is inside sensitive code (§5.1.1).
type Native struct {
	d *Direct
	refcount
	// Track, when non-nil, enables the active-tracking policy.
	Track *Tracker
	// Journal, when non-nil, enables the dirty-frame journal policy:
	// page-table stores append to the ring, structural changes (root
	// registration/release) degrade the epoch to full recompute.
	Journal *xen.DirtyJournal
	Stats   Stats

	// lazyDepth is the per-CPU lazy-MMU nesting depth. Native executes
	// eagerly — the depth only carries the operation reference the
	// outermost BeginLazyMMU takes, matching the virtual object's
	// refcount behaviour so mode switches see the same drain points.
	lazyDepth []int
}

// NewNative returns Mercury's native-mode object.
func NewNative(m *hw.Machine) *Native {
	return &Native{d: NewDirect(m), Stats: newStats(m, "native"),
		lazyDepth: make([]int, len(m.CPUs))}
}

// callEnter is the operation prologue: object-table indirection plus
// reference counting. Pair with `defer n.exit()` — unlike a returned
// closure, the plain defer is open-coded and allocation-free.
func (n *Native) callEnter(c *hw.CPU) {
	n.Stats.Calls.Add(1)
	n.enter() // count first: the charges below may deliver interrupts
	c.Charge(n.d.M.Costs.VOIndirect + n.d.M.Costs.VORefCount)
}

// Name identifies the object.
func (n *Native) Name() string { return "native" }

// Virtualized reports false.
func (n *Native) Virtualized() bool { return false }

// SetInterrupts executes cli/sti through the object table.
func (n *Native) SetInterrupts(c *hw.CPU, on bool) {
	n.callEnter(c)
	defer n.exit()
	n.d.SetInterrupts(c, on)
}

// LoadInterruptTable executes lidt through the object table.
func (n *Native) LoadInterruptTable(c *hw.CPU, t *hw.IDT) {
	n.callEnter(c)
	defer n.exit()
	n.d.LoadInterruptTable(c, t)
}

// ArmTimer programs the APIC timer through the object table.
func (n *Native) ArmTimer(c *hw.CPU, deadline hw.Cycles) {
	n.callEnter(c)
	defer n.exit()
	n.d.ArmTimer(c, deadline)
}

// ContextSwitch loads CR3 through the object table.
func (n *Native) ContextSwitch(c *hw.CPU, root hw.PFN) {
	n.callEnter(c)
	defer n.exit()
	n.d.ContextSwitch(c, root)
}

// WritePTE stores the entry, mirroring it into the VMM under active
// tracking.
func (n *Native) WritePTE(c *hw.CPU, table hw.PFN, idx int, e hw.PTE) {
	n.callEnter(c)
	defer n.exit()
	n.Stats.PTEWrites.Add(1)
	if n.Track != nil {
		if err := n.Track.V.MirrorPTEWrite(c, n.Track.D,
			xen.MMUUpdate{Table: table, Index: idx, New: e}); err != nil {
			panic(fmt.Sprintf("vo: active tracking diverged: %v", err))
		}
		return
	}
	if n.Journal != nil {
		c.Charge(n.d.M.Costs.JournalAppend)
		n.Journal.Record(table, idx, hw.ReadPTE(n.d.M.Mem, table, idx), e)
	}
	c.Charge(n.d.M.Costs.PTEWriteNative)
	hw.WritePTE(n.d.M.Mem, table, idx, e)
}

// WritePTEBatch stores each entry (mirroring under active tracking),
// each run of same-table entries through one hw.WriteTable view.
// Without tracking or a journal, a batch whose stores are quiet
// (hw.CPU.Quiet) charges them once, up front; otherwise each entry is
// charged before its store, and an interrupt may land between two
// stores. DESIGN.md "Page-table walks" says why the view stays good
// across one.
func (n *Native) WritePTEBatch(c *hw.CPU, batch []xen.MMUUpdate) {
	n.callEnter(c)
	defer n.exit()
	n.Stats.PTEWrites.Add(uint64(len(batch)))
	cost := n.d.M.Costs.PTEWriteNative
	quiet := n.Track == nil && n.Journal == nil && c.Quiet(cost*hw.Cycles(len(batch)))
	if quiet {
		c.Charge(cost * hw.Cycles(len(batch)))
	}
	var w hw.TableWriter
	for i, u := range batch {
		if n.Track != nil {
			if err := n.Track.V.MirrorPTEWrite(c, n.Track.D, u); err != nil {
				panic(fmt.Sprintf("vo: active tracking diverged: %v", err))
			}
			continue
		}
		if n.Journal != nil {
			c.Charge(n.d.M.Costs.JournalAppend)
			n.Journal.Record(u.Table, u.Index,
				hw.ReadPTE(n.d.M.Mem, u.Table, u.Index), u.New)
		}
		if !quiet {
			c.Charge(cost)
		}
		if i == 0 || u.Table != batch[i-1].Table {
			w = hw.WriteTable(n.d.M.Mem, u.Table)
		}
		w.Set(u.Index, u.New)
	}
}

// RegisterRoot pins the root in the mirror under active tracking; under
// the journal policy a new root is a structural change the ring cannot
// express, degrading the epoch to full recompute.
func (n *Native) RegisterRoot(c *hw.CPU, root hw.PFN) {
	n.callEnter(c)
	defer n.exit()
	if n.Track != nil {
		if err := n.Track.V.MirrorPinRoot(c, n.Track.D, root); err != nil {
			panic(fmt.Sprintf("vo: active tracking pin: %v", err))
		}
	}
	if n.Journal != nil {
		n.Journal.RecordStructural()
	}
}

// ReleaseRoot unpins the root in the mirror under active tracking; see
// RegisterRoot for the journal-policy semantics.
func (n *Native) ReleaseRoot(c *hw.CPU, root hw.PFN) {
	n.callEnter(c)
	defer n.exit()
	if n.Track != nil {
		if err := n.Track.V.MirrorUnpinRoot(c, n.Track.D, root); err != nil {
			panic(fmt.Sprintf("vo: active tracking unpin: %v", err))
		}
	}
	if n.Journal != nil {
		n.Journal.RecordStructural()
	}
}

// FlushTLB flushes through the object table.
func (n *Native) FlushTLB(c *hw.CPU) {
	n.callEnter(c)
	defer n.exit()
	n.d.FlushTLB(c)
}

// InvalidatePage executes invlpg through the object table.
func (n *Native) InvalidatePage(c *hw.CPU, va hw.VirtAddr) {
	n.callEnter(c)
	defer n.exit()
	n.d.InvalidatePage(c, va)
}

// BeginLazyMMU opens a lazy-MMU section. Native has nothing to defer,
// but the outermost Begin still takes an operation reference so the
// section reads as in-flight sensitive work to the mode-switch scan.
func (n *Native) BeginLazyMMU(c *hw.CPU) {
	if n.lazyDepth[c.ID] == 0 {
		n.callEnter(c)
	}
	n.lazyDepth[c.ID]++
}

// EndLazyMMU closes the section.
func (n *Native) EndLazyMMU(c *hw.CPU) {
	if n.lazyDepth[c.ID] <= 0 {
		panic("vo: EndLazyMMU without matching BeginLazyMMU")
	}
	n.lazyDepth[c.ID]--
	if n.lazyDepth[c.ID] == 0 {
		n.exit()
	}
}

// FlushLazyMMU is a no-op: native operations execute eagerly.
func (n *Native) FlushLazyMMU(c *hw.CPU) {}

var _ Object = (*Native)(nil)
