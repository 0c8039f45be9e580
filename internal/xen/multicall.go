package xen

import (
	"fmt"
	"slices"

	"repro/internal/hw"
)

// The multicall interface (Xen's HYPERVISOR_multicall): a guest hands
// the VMM a heterogeneous list of operations and pays the world switch
// and hypercall base cost ONCE for the whole batch, plus a small
// per-op dispatch cost inside the VMM. This is Xen's real defense
// against the hypercall tax on PTE-write storms — fork's page-table
// copy, exec's teardown/rebuild, an attach's pin ladder — and the
// substrate for vo.Virtual's lazy-MMU batching (the Linux xen_mc_batch
// pattern; see internal/vo).
//
// Flush deferral: a batch may contain any number of MCTLBFlush
// requests, but the VMM coalesces them to AT MOST ONE hardware flush,
// executed after the last op of the batch. An MCNewBaseptr later in
// the batch cancels a pending flush — the CR3 load flushes the TLB
// anyway. The coalesced flush runs even when an op fails mid-batch, so
// a partially applied batch can never leave a stale translation live.
//
// Entry stores ride in runs: consecutive mmu_update entries share one
// MCUpdate op over the batch's own update array, the way Xen-Linux's
// xen_extend_mmu_update appends a request to the previous multicall
// entry when that entry is an mmu_update, and the VMM applies each
// same-table stretch of a run with one table check and one frame load
// (applyRun), as do_mmu_update maps a request's table again only when
// it differs from the previous request's. Everything simulated stays
// per entry: each entry is one op of Len, Applied, the op index an
// error names and the multicall_ops count, and pays its own
// MulticallPerOp and MMUUpdateEntry in the order a one-op-per-entry
// batch would.

// MCOpKind discriminates one multicall operation.
type MCOpKind uint8

const (
	// MCUpdate is a run of mmu_update entry stores (validate + apply),
	// each one op of the batch.
	MCUpdate MCOpKind = iota
	// MCPin is MMUEXT_PIN_L2_TABLE for Root.
	MCPin
	// MCUnpin is MMUEXT_UNPIN_TABLE for Root.
	MCUnpin
	// MCNewBaseptr is MMUEXT_NEW_BASEPTR: install Root as the guest
	// page-directory base (auto-pinning it first, as Xen does). Clears
	// any pending deferred TLB flush — the CR3 load already flushes.
	MCNewBaseptr
	// MCStackSwitch is stack_switch plus the vcpu state swap of a
	// paravirtual context switch.
	MCStackSwitch
	// MCTLBFlush requests a local TLB flush, deferred and coalesced to
	// at most one per batch.
	MCTLBFlush
	// MCInvlpg invalidates the single translation for VA.
	MCInvlpg
	// MCSetTrapTable registers the guest exception handlers in Traps.
	MCSetTrapTable
	// MCBindVirqTimer binds the virtual timer interrupt to Timer.
	MCBindVirqTimer
	// MCEvtchnSend rings the event channel Port. Inside the batch it
	// only marks the remote port pending; the upcalls for every kicked
	// domain are delivered once, after the batch commits — this is how
	// a multi-queue frontend folds all its queue doorbells into one
	// VMM entry.
	MCEvtchnSend
)

// String names the op kind (error messages, traces).
func (k MCOpKind) String() string {
	switch k {
	case MCUpdate:
		return "mmu_update"
	case MCPin:
		return "pin"
	case MCUnpin:
		return "unpin"
	case MCNewBaseptr:
		return "new_baseptr"
	case MCStackSwitch:
		return "stack_switch"
	case MCTLBFlush:
		return "tlb_flush"
	case MCInvlpg:
		return "invlpg"
	case MCSetTrapTable:
		return "set_trap_table"
	case MCBindVirqTimer:
		return "bind_virq_timer"
	case MCEvtchnSend:
		return "evtchn_send"
	}
	return fmt.Sprintf("mc_op(%d)", uint8(k))
}

// MCOp is one operation in a multicall batch, or one run of entry
// stores. Only the fields the Kind consumes are meaningful.
type MCOp struct {
	Kind  MCOpKind
	Root  hw.PFN        // MCPin, MCUnpin, MCNewBaseptr
	VA    hw.VirtAddr   // MCInvlpg
	Traps []TrapEntry   // MCSetTrapTable
	Timer func(*hw.CPU) // MCBindVirqTimer
	Port  Port          // MCEvtchnSend
	n     int           // MCUpdate: the run's length in Multicall.updates
}

// Multicall is a reusable batch of operations. The zero value is ready
// to use; Reset keeps both backing arrays so a warmed batch enqueues
// and flushes without allocating.
type Multicall struct {
	ops []MCOp
	// updates holds every MCUpdate run's entries, runs in op order.
	updates []MMUUpdate
	// entries is the batch's length in ops, each entry store one.
	entries int

	// Applied is set by HypMulticall: the number of ops that executed
	// successfully, each entry store one. On success Applied == Len();
	// after a mid-batch error it is the length of the applied prefix,
	// which is what a transactional caller must unwind.
	Applied int

	// kicked collects the distinct domains whose ports MCEvtchnSend
	// ops marked pending; HypMulticall delivers their upcalls after
	// the MMU lock drops (delivering under the lock would deadlock:
	// backend handlers take it again for grant maps).
	kicked []*Domain
}

// Grow sizes the batch's backing arrays for at least ops more ops and
// updates more entry stores, so a batch sized once never regrows.
func (m *Multicall) Grow(ops, updates int) {
	m.ops = slices.Grow(m.ops, ops)
	m.updates = slices.Grow(m.updates, updates)
}

// Reset empties the batch, keeping capacity.
func (m *Multicall) Reset() {
	clear(m.ops) // drop Traps/Timer references
	m.ops = m.ops[:0]
	m.updates = m.updates[:0]
	m.entries = 0
	m.Applied = 0
	for i := range m.kicked {
		m.kicked[i] = nil
	}
	m.kicked = m.kicked[:0]
}

// Len returns the number of enqueued ops, each entry store one.
func (m *Multicall) Len() int { return m.entries }

// add enqueues one op that is not an entry store.
func (m *Multicall) add(op MCOp) {
	m.ops = append(m.ops, op)
	m.entries++
}

// AddUpdates enqueues mmu_update entry stores in order, each one op of
// Len, extending the last op when it is a run of entry stores.
func (m *Multicall) AddUpdates(ups []MMUUpdate) {
	m.updates = append(m.updates, ups...)
	m.entries += len(ups)
	if n := len(m.ops); n > 0 && m.ops[n-1].Kind == MCUpdate {
		m.ops[n-1].n += len(ups)
		return
	}
	m.ops = append(m.ops, MCOp{Kind: MCUpdate, n: len(ups)})
}

// AddPin enqueues MMUEXT_PIN_L2_TABLE.
func (m *Multicall) AddPin(root hw.PFN) {
	m.add(MCOp{Kind: MCPin, Root: root})
}

// AddUnpin enqueues MMUEXT_UNPIN_TABLE.
func (m *Multicall) AddUnpin(root hw.PFN) {
	m.add(MCOp{Kind: MCUnpin, Root: root})
}

// AddNewBaseptr enqueues MMUEXT_NEW_BASEPTR.
func (m *Multicall) AddNewBaseptr(root hw.PFN) {
	m.add(MCOp{Kind: MCNewBaseptr, Root: root})
}

// AddStackSwitch enqueues the context-switch stack/vcpu state swap.
func (m *Multicall) AddStackSwitch() {
	m.add(MCOp{Kind: MCStackSwitch})
}

// AddTLBFlush enqueues a (deferred, coalesced) local TLB flush.
func (m *Multicall) AddTLBFlush() {
	m.add(MCOp{Kind: MCTLBFlush})
}

// AddInvlpg enqueues a single-page invalidation.
func (m *Multicall) AddInvlpg(va hw.VirtAddr) {
	m.add(MCOp{Kind: MCInvlpg, VA: va})
}

// AddSetTrapTable enqueues guest trap-table registration.
func (m *Multicall) AddSetTrapTable(entries []TrapEntry) {
	m.add(MCOp{Kind: MCSetTrapTable, Traps: entries})
}

// AddBindVirqTimer enqueues the virtual-timer binding.
func (m *Multicall) AddBindVirqTimer(h func(*hw.CPU)) {
	m.add(MCOp{Kind: MCBindVirqTimer, Timer: h})
}

// AddEvtchnSend enqueues an event-channel doorbell on p.
func (m *Multicall) AddEvtchnSend(p Port) {
	m.add(MCOp{Kind: MCEvtchnSend, Port: p})
}

// HypMulticall executes the batch in one world switch: one
// WorldSwitch + HypercallBase for the entry, MulticallPerOp per op for
// the VMM's dispatch, and each op's own validation costs — instead of
// the per-op WorldSwitch + HypercallBase an unbatched stream pays.
//
// Execution stops at the first failing op; m.Applied reports the
// length of the successfully applied prefix either way. A deferred TLB
// flush requested by any applied op is executed even on the error
// path, before returning.
func (v *VMM) HypMulticall(c *hw.CPU, d *Domain, m *Multicall) error {
	m.Applied = 0
	m.kicked = m.kicked[:0]
	if m.entries == 0 {
		return nil
	}
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	d.Stats.Multicalls.Inc()
	d.Stats.MulticallOps.Add(uint64(m.entries))
	if fr.h != nil {
		fr.h.col.Tracer.Instant(c.ID, c.Now(), "xen/multicall", uint64(m.entries))
	}
	v.mmu.Lock(c)
	err := v.multicallLocked(c, d, m)
	v.mmu.Unlock(c)
	// Deliver the upcalls for every domain an MCEvtchnSend kicked, now
	// that the MMU lock has dropped: the handlers are backend drains
	// that map grants, which takes the lock again.
	for _, rd := range m.kicked {
		v.maybeDeliverUpcall(c, rd)
	}
	return err
}

// multicallLocked dispatches the ops (MMU lock held, PL0). Each kind
// runs the same body as its single hypercall, a run of entry stores
// HypMMUUpdate's; only the TLB flush is deferred, to at most one after
// the last op.
func (v *VMM) multicallLocked(c *hw.CPU, d *Domain, m *Multicall) error {
	flushPending := false
	var err error
	next := 0 // the first update of the next run
	for i := range m.ops {
		op := &m.ops[i]
		if op.Kind == MCUpdate {
			var n int
			n, err = v.applyUpdates(c, d, m.updates[next:next+op.n], true, sinkCharge)
			next += op.n
			m.Applied += n
			if err != nil {
				err = fmt.Errorf("xen: multicall op %d (%s): %w", m.Applied, op.Kind, err)
				break
			}
			continue
		}
		c.Charge(v.M.Costs.MulticallPerOp)
		switch op.Kind {
		case MCPin:
			err = v.pinTable(c, d, op.Root, sinkCharge)
		case MCUnpin:
			err = v.unpinTable(c, d, op.Root, sinkCharge)
		case MCNewBaseptr:
			if err = v.newBaseptrLocked(c, d, op.Root); err == nil {
				// The CR3 load flushed the TLB; a flush requested
				// earlier in the batch is already satisfied.
				flushPending = false
			}
		case MCStackSwitch:
			v.stackSwitch(c)
		case MCTLBFlush:
			flushPending = true
		case MCInvlpg:
			v.invlpg(c, op.VA)
		case MCSetTrapTable:
			err = v.setTrapTable(c, d, op.Traps)
		case MCBindVirqTimer:
			v.bindVirqTimer(d, op.Timer)
		case MCEvtchnSend:
			var rd *Domain
			if rd, err = v.evtchnSend(c, d, op.Port); err == nil && !slices.Contains(m.kicked, rd) {
				m.kicked = append(m.kicked, rd)
			}
		default:
			err = fmt.Errorf("xen: multicall: unknown op kind %d", op.Kind)
		}
		if err != nil {
			err = fmt.Errorf("xen: multicall op %d (%s): %w", m.Applied, op.Kind, err)
			break
		}
		m.Applied++
	}
	if flushPending {
		v.flushTLB(c)
	}
	return err
}
