package xen

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
)

// mcFuzzEnv is one FuzzMulticall machine: guest d running on a pinned
// tree of mcFuzzPages pages installed as its base pointer, a second
// tree built but not pinned, and the host's dom0 as a peer bound to d
// by one event channel. No timer is armed, so no interrupt lands inside
// a measured call.
type mcFuzzEnv struct {
	v       *VMM
	d       *Domain
	peer    *Domain
	c       *hw.CPU
	clean   *FrameTable // owners only: the table before anything was pinned
	pool    []hw.PFN    // the frames an op may name
	ports   []Port      // the ports an op may name
	tables  []hw.PFN    // the tables a run may store to: L1, L2, L1, L2
	hostile []hw.PFN    // a foreign frame and one beyond memory
}

// mcFuzzPages is the pinned tree's size: one switch-cycle region's
// worth, so one L1 holds an mprotect-sized run of present entries.
const mcFuzzPages = 410

func newMCFuzzEnv(t *testing.T) *mcFuzzEnv {
	t.Helper()
	h, err := BootHost(hw.Config{MemBytes: 20 << 20, NumCPUs: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, v, c, peer := h.M, h.V, h.C, h.Dom0
	d, err := v.CreateDomain("guest", hw.PFN(m.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, d)
	pp := v.EvtchnAllocUnbound(c, peer, d.ID)
	peer.SetPortHandler(pp, func(*hw.CPU) {})
	port, err := v.EvtchnBindInterdomain(c, d, peer.ID, pp)
	if err != nil {
		t.Fatal(err)
	}
	tb, data := buildTree(t, v, d, mcFuzzPages)
	tb2, _ := buildTree(t, v, d, 2)
	e := &mcFuzzEnv{v: v, d: d, peer: peer, c: c, clean: v.FT.Clone()}
	if err := v.HypNewBaseptr(c, d, tb.Root); err != nil {
		t.Fatal(err)
	}
	l1, _ := tb.ExistingSlot(0x0800_0000)
	l1b, _ := tb2.ExistingSlot(0x0800_0000)
	vmmLo, _ := v.Reserved.Range()
	e.pool = []hw.PFN{
		tb.Root, l1.Table, data[0], data[1], tb2.Root, l1b.Table,
		d.Frames.Alloc(), peer.Frames.Alloc(), vmmLo, v.M.Mem.NumFrames(), 1<<20 - 1,
	}
	e.ports = []Port{port, port + 1, -1, 1 << 20}
	e.tables = []hw.PFN{l1.Table, tb.Root, l1b.Table, tb2.Root}
	e.hostile = []hw.PFN{peer.Frames.Alloc(), v.M.Mem.NumFrames()}
	return e
}

// The indices, vectors and handlers an op may name: in range and out.
var (
	fuzzIndices = [...]int{0, 1, 2, 32, hw.PTEntries - 1, -1, hw.PTEntries, 1 << 20}
	fuzzVectors = [...]int{3, hw.VecPageFault, hw.VecGP, hw.NumVectors - 1, -1, hw.NumVectors, 300}
	fuzzTraps   = [...]func(*hw.CPU, *hw.TrapFrame){
		func(*hw.CPU, *hw.TrapFrame) {}, func(*hw.CPU, *hw.TrapFrame) {},
	}
	fuzzTimers = [...]func(*hw.CPU){nil, func(*hw.CPU) {}}
)

// mcEntry is one op as the fuzzer decodes it: an MCOp, or for MCUpdate
// one entry store.
type mcEntry struct {
	MCOp
	Update MMUUpdate // MCUpdate
}

// enqueue adds e to m through its kind's Add method.
func enqueue(m *Multicall, e mcEntry) {
	switch e.Kind {
	case MCUpdate:
		m.AddUpdates([]MMUUpdate{e.Update})
	case MCPin:
		m.AddPin(e.Root)
	case MCUnpin:
		m.AddUnpin(e.Root)
	case MCNewBaseptr:
		m.AddNewBaseptr(e.Root)
	case MCStackSwitch:
		m.AddStackSwitch()
	case MCTLBFlush:
		m.AddTLBFlush()
	case MCInvlpg:
		m.AddInvlpg(e.VA)
	case MCSetTrapTable:
		m.AddSetTrapTable(e.Traps)
	case MCBindVirqTimer:
		m.AddBindVirqTimer(e.Timer)
	case MCEvtchnSend:
		m.AddEvtchnSend(e.Port)
	default:
		m.add(e.MCOp)
	}
}

// decodeMCOps turns the fuzz bytes into units of ops: each unit is one
// op, except MCStackSwitch, which is followed by an MCNewBaseptr so the
// pair matches the HypContextSwitch hypercall, and a run (kind 11).
// Kind 10 is no kind.
//
// An MCUpdate is its table (a pool frame) and index, two bytes of flags
// (any of the 12 bits) and a selector: an even one names a pool frame
// to map, an odd one is the top bits of any 20-bit frame number, whose
// other bits follow in two more bytes.
//
// A run is 2–64 entry stores to one of e.tables at ascending indices
// from a two-byte start, as a VisitRange over the table makes them:
// each re-flags the entry the table first held, writable or read-only
// as one byte says. A selector byte may make one entry, at a position
// the next byte gives, hostile: a foreign frame, a frame beyond memory,
// a writable mapping of a page table (the run's own table included),
// or an index out of range.
func decodeMCOps(e *mcFuzzEnv, in *fuzzInput) [][]mcEntry {
	pick := func() hw.PFN { return e.pool[int(in.next())%len(e.pool)] }
	var units [][]mcEntry
	for len(*in) > 0 && len(units) < 16 {
		k := in.next() % 12
		if k == 11 {
			units = append(units, decodeRun(e, in))
			continue
		}
		op := mcEntry{MCOp: MCOp{Kind: MCOpKind(k)}}
		switch op.Kind {
		case MCUpdate:
			op.Update = MMUUpdate{Table: pick(), Index: fuzzIndices[int(in.next())%len(fuzzIndices)]}
			flags := uint32(in.next()) | uint32(in.next())<<8
			var frame hw.PFN
			if sel := in.next(); sel&1 == 0 {
				frame = e.pool[int(sel>>1)%len(e.pool)]
			} else {
				frame = hw.PFN(sel>>1)<<13 | hw.PFN(in.next())<<5 | hw.PFN(in.next()&0x1F)
			}
			op.Update.New = hw.MakePTE(frame, flags)
		case MCPin, MCUnpin, MCNewBaseptr, MCStackSwitch:
			op.Root = pick()
		case MCInvlpg:
			op.VA = 0x0800_0000 + hw.VirtAddr(in.next())<<hw.PageShift
		case MCSetTrapTable:
			for n := 1 + in.next()%2; n > 0; n-- {
				op.Traps = append(op.Traps, TrapEntry{
					Vector:  fuzzVectors[int(in.next())%len(fuzzVectors)],
					Handler: fuzzTraps[in.next()%2],
				})
			}
		case MCBindVirqTimer:
			op.Timer = fuzzTimers[in.next()%2]
		case MCEvtchnSend:
			op.Port = e.ports[int(in.next())%len(e.ports)]
		}
		unit := []mcEntry{op}
		if op.Kind == MCStackSwitch {
			unit = append(unit, mcEntry{MCOp: MCOp{Kind: MCNewBaseptr, Root: op.Root}})
		}
		units = append(units, unit)
	}
	return units
}

// decodeRun decodes one run unit (see decodeMCOps).
func decodeRun(e *mcFuzzEnv, in *fuzzInput) []mcEntry {
	table := e.tables[int(in.next())%len(e.tables)]
	lo := (int(in.next())<<8 | int(in.next())) % hw.PTEntries
	n := 2 + int(in.next())%63
	lo = min(lo, hw.PTEntries-n)
	writable := uint32(in.next()&1) * hw.PTEWrite
	run := make([]mcEntry, n)
	for i := range run {
		old := hw.ReadPTE(e.v.M.Mem, table, lo+i)
		run[i] = mcEntry{MCOp: MCOp{Kind: MCUpdate}, Update: MMUUpdate{Table: table, Index: lo + i,
			New: old.WithFlags(old.Flags()&^hw.PTEWrite | writable)}}
	}
	sel, pos := in.next()%8, int(in.next())%n
	u := &run[pos].Update
	flags := hw.PTEPresent | hw.PTEUser | hw.PTEWrite
	switch sel {
	case 1, 2: // a foreign frame, a frame beyond memory
		u.New = hw.MakePTE(e.hostile[sel-1], flags)
	case 3, 4, 5: // a page table mapped writable: this run's own, or another
		u.New = hw.MakePTE([]hw.PFN{table, e.tables[0], e.tables[1]}[sel-3], flags)
	case 6:
		u.Index = -1
	case 7:
		u.Index = hw.PTEntries
	}
	return run
}

// multicall issues ops as one batch.
func (e *mcFuzzEnv) multicall(ops []mcEntry) (*Multicall, error) {
	mc := &Multicall{}
	for _, op := range ops {
		enqueue(mc, op)
	}
	return mc, e.v.HypMulticall(e.c, e.d, mc)
}

// single issues a unit through its own hypercall, a run through one
// mmu_update per entry up to the first refused, and returns how many
// hypercalls it made.
func (e *mcFuzzEnv) single(unit []mcEntry) (int, error) {
	v, c, d, op := e.v, e.c, e.d, unit[0]
	switch op.Kind {
	case MCUpdate:
		for i, u := range unit {
			if err := v.HypMMUUpdate(c, d, []MMUUpdate{u.Update}); err != nil {
				return i + 1, err
			}
		}
		return len(unit), nil
	case MCPin:
		return 1, v.HypPinTable(c, d, op.Root)
	case MCUnpin:
		return 1, v.HypUnpinTable(c, d, op.Root)
	case MCNewBaseptr:
		return 1, v.HypNewBaseptr(c, d, op.Root)
	case MCStackSwitch:
		return 1, v.HypContextSwitch(c, d, unit[1].Root)
	case MCTLBFlush:
		v.HypTLBFlush(c, d)
		return 1, nil
	case MCInvlpg:
		v.HypInvlpg(c, d, op.VA)
		return 1, nil
	case MCSetTrapTable:
		return 1, v.HypSetTrapTable(c, d, op.Traps)
	case MCBindVirqTimer:
		v.HypBindVirqTimer(c, d, op.Timer)
		return 1, nil
	case MCEvtchnSend:
		return 1, v.EvtchnSend(c, d, op.Port)
	}
	_, err := e.multicall(unit) // no kind: no hypercall of its own
	return 1, err
}

// funcID identifies a handler for comparison across machines.
func funcID(f any) uintptr {
	if rv := reflect.ValueOf(f); !rv.IsNil() {
		return rv.Pointer()
	}
	return 0
}

// sameState compares what an op may change on two machines: the frame
// table, the guest's and peer's memory, CR3, pins, the trap table and
// the timer binding.
func sameState(a, b *mcFuzzEnv) error {
	if err := a.v.FT.Equal(b.v.FT); err != nil {
		return err
	}
	for _, dom := range [][2]*Domain{{a.d, b.d}, {a.peer, b.peer}} {
		lo, hi := dom[0].Frames.Range()
		for pfn := lo; pfn < hi; pfn++ {
			if !bytes.Equal(a.v.M.Mem.FrameBytesRO(pfn), b.v.M.Mem.FrameBytesRO(pfn)) {
				return fmt.Errorf("frame %d differs", pfn)
			}
		}
	}
	if a.c.ReadCR3() != b.c.ReadCR3() || a.d.VCPU0().CR3() != b.d.VCPU0().CR3() {
		return fmt.Errorf("CR3 %d/%d vs %d/%d", a.c.ReadCR3(), a.d.VCPU0().CR3(),
			b.c.ReadCR3(), b.d.VCPU0().CR3())
	}
	if pa, pb := a.d.PinnedRoots(), b.d.PinnedRoots(); !slices.Equal(pa, pb) {
		return fmt.Errorf("pinned roots %v vs %v", pa, pb)
	}
	for vec := range hw.NumVectors {
		ga, gb := a.d.TrapGate(vec), b.d.TrapGate(vec)
		if ga.Present != gb.Present || funcID(ga.Handler) != funcID(gb.Handler) {
			return fmt.Errorf("trap vector %d differs", vec)
		}
	}
	if funcID(a.d.TimerHandler) != funcID(b.d.TimerHandler) {
		return fmt.Errorf("timer handler differs")
	}
	return nil
}

// checkSafe asserts the frame table's invariants, that the directory
// in CR3 is typed L2 (the base pointer holds it even once unpinned),
// that the table is what a recompute of the pinned roots builds from
// memory (no store escaped the accounting), and the direct-paging
// safety property: no present writable leaf of a pinned tree maps a
// frame typed as a page table.
func (e *mcFuzzEnv) checkSafe() error {
	if err := e.v.FT.CheckInvariants(); err != nil {
		return err
	}
	if cr3 := e.c.ReadCR3(); e.v.FT.Get(cr3).Type != FrameL2 {
		return fmt.Errorf("CR3 directory %d is %s, not L2", cr3, e.v.FT.Get(cr3).Type)
	}
	inc, roots := e.v.FT.Clone(), e.d.PinnedRoots()
	e.v.ReleaseFrameInfo(e.c, e.d)
	if err := e.v.RecomputeFrameInfo(e.c, e.d, roots, 1); err != nil {
		return fmt.Errorf("recomputing the pinned roots: %w", err)
	}
	if err := e.v.FT.Equal(inc); err != nil {
		return fmt.Errorf("accounting differs from a recompute: %w", err)
	}
	mem := e.v.M.Mem
	for _, root := range e.d.PinnedRoots() {
		dir := hw.ViewTable(mem, root)
		for i := 0; i < hw.PTEntries; i++ {
			pde := dir.At(i)
			if !pde.Present() {
				continue
			}
			l1 := hw.ViewTable(mem, pde.Frame())
			for k := 0; k < hw.PTEntries; k++ {
				pte := l1.At(k)
				if !pte.Present() || !pte.Writable() {
					continue
				}
				if typ := e.v.FT.Get(pte.Frame()).Type; typ == FrameL1 || typ == FrameL2 {
					return fmt.Errorf("root %d: %d[%d] maps %s frame %d writable",
						root, pde.Frame(), k, typ, pte.Frame())
				}
			}
		}
	}
	return nil
}

// FuzzMulticall drives hostile multicall batches — indices, frames,
// vectors and ports out of range, writable mappings of page tables,
// unpins of unknown roots — at a guest over a pinned tree. Three
// identical machines run each input:
//
//   - A issues every unit as its own multicall: every call must keep the
//     frame table's invariants and no pinned tree may map a page table
//     writable;
//   - B issues every unit through its single hypercall, a run through
//     one mmu_update per entry: after each unit A and B must agree on
//     the outcome, the entry a run failed at and every piece of state,
//     and A must have paid exactly MulticallPerOp per op more, less the
//     world switches of B's extra hypercalls;
//   - C issues all the ops as one batch: Applied must be the prefix A
//     executed before its first failure, with the same state.
//
// A rejected op must return an error; a VMM panic fails the input. At
// the end, A releases its pins by ReleaseFrameInfo and B by the walk
// that ReleaseFrameInfo falls back to: both clocks must advance by the
// same amount, and neither may leave accounting behind.
func FuzzMulticall(f *testing.F) {
	// The batches of multicall_test.go: five coalesced flushes; a flush
	// then a new base pointer; a flush, a pin, an unpin of a never
	// pinned frame and a pin; a same-value store then a flush.
	f.Add([]byte{5, 5, 5, 5, 5})
	f.Add([]byte{5, 3, 4})
	f.Add([]byte{5, 1, 4, 2, 6, 1, 4})
	f.Add([]byte{0, 1, 0, 0x07, 0, 4, 5})
	// Hostile ops: an index past the table, a pin past memory, vector
	// 300, port -1, a live L1 mapped writable into itself, a VMM frame
	// pinned, an unknown op kind, then a context switch.
	f.Add([]byte{0, 1, 6, 0x05, 0, 4, 1, 9, 7, 0, 6, 0, 9, 2, 0, 1, 3, 0x07, 0, 2, 1, 8, 10, 4, 0})
	// Entries of any bits: every flag bit on a data frame, frame 2000
	// (the VMM's) and frame 2^20-1, far past memory.
	f.Add([]byte{0, 1, 1, 0xFF, 0x0F, 4, 0, 1, 2, 0x07, 0, 0x01, 0x3E, 0x10,
		0, 1, 2, 0x03, 0, 0xFF, 0xFF, 0xFF})
	// An mprotect of the pinned tree's 410 pages: seven runs on its L1
	// make indices 0–409 read-only, which the batch joins into one run,
	// then a flush; and the same with the 200th entry mapping the L1
	// itself writable.
	mprotect := func(hostile byte) []byte {
		var in []byte
		for lo := 0; lo < mcFuzzPages; lo += 64 {
			n := min(64, mcFuzzPages-lo)
			sel, pos := byte(0), byte(0)
			if lo <= 200 && 200 < lo+n {
				sel, pos = hostile, byte(200-lo)
			}
			in = append(in, 11, 0, byte(lo>>8), byte(lo), byte(n-2), 0, sel, pos)
		}
		return append(in, 5)
	}
	f.Add(mprotect(0))
	f.Add(mprotect(3))
	// Runs on the directory: its entries 30–34 (32 reaches the L1)
	// made writable, then read-only, the second run with entry 32 out of
	// range; and a run on the unpinned tree's L1.
	f.Add([]byte{11, 1, 0, 30, 3, 1, 0, 0, 11, 1, 0, 30, 3, 0, 6, 2, 11, 2, 0, 0, 10, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, cc := newMCFuzzEnv(t), newMCFuzzEnv(t), newMCFuzzEnv(t)
		in := fuzzInput(data)
		units := decodeMCOps(a, &in)
		var ops []mcEntry
		for _, u := range units {
			ops = append(ops, u...)
		}
		hypercall := a.v.M.Costs.WorldSwitch + a.v.M.Costs.HypercallBase

		batch, batchErr := cc.multicall(ops)
		if batchErr == nil && batch.Applied != len(ops) {
			t.Fatalf("batch succeeded with Applied %d of %d", batch.Applied, len(ops))
		}
		if batchErr != nil && (batch.Applied >= len(ops) || !strings.Contains(batchErr.Error(),
			fmt.Sprintf("op %d (%s)", batch.Applied, ops[batch.Applied].Kind))) {
			t.Fatalf("batch error %q does not name op %d", batchErr, batch.Applied)
		}
		if err := cc.checkSafe(); err != nil {
			t.Fatalf("after the batch: %v", err)
		}

		next, firstFail := 0, len(ops)
		for _, u := range units {
			a0, b0 := a.c.Now(), b.c.Now()
			mc, errA := a.multicall(u)
			calls, errB := b.single(u)
			costA, costB := a.c.Now()-a0, b.c.Now()-b0
			if (errA == nil) != (errB == nil) || errA != nil && !strings.HasSuffix(errA.Error(), errB.Error()) {
				t.Fatalf("%v: multicall %v, hypercall %v", u, errA, errB)
			}
			if errA != nil && firstFail == len(ops) {
				firstFail = next + mc.Applied
				// The batch stopped at this op too: its state must be
				// A's (an op that fails changes nothing).
				if batchErr != nil && firstFail == batch.Applied {
					if err := sameState(cc, a); err != nil {
						t.Fatalf("batch and A stopped at op %d, in other states: %v", batch.Applied, err)
					}
				}
			}
			ran := len(u) // the ops A dispatched
			if u[0].Kind == MCUpdate {
				ran = calls // B stopped at the entry A failed at, or ran them all
				applied := calls
				if errB != nil {
					applied-- // the call that failed
				}
				if mc.Applied != applied {
					t.Fatalf("%v: multicall applied %d entries, mmu_update %d", u, mc.Applied, applied)
				}
			}
			want := hw.Cycles(ran)*a.v.M.Costs.MulticallPerOp - hw.Cycles(calls-1)*hypercall
			if u[0].Kind > MCEvtchnSend {
				want = 0 // both sides issued the batch
			}
			if costA-costB != want {
				t.Fatalf("%v: multicall cost %d, hypercall %d: difference %d, want %d",
					u, costA, costB, costA-costB, want)
			}
			if err := sameState(a, b); err != nil {
				t.Fatalf("%v: multicall and hypercall state differ: %v", u, err)
			}
			if err := a.checkSafe(); err != nil {
				t.Fatalf("%v: %v", u, err)
			}
			next += len(u)
		}
		if firstFail != batch.Applied {
			t.Fatalf("batch applied %d ops, but the ops first fail at %d", batch.Applied, firstFail)
		}
		if batchErr == nil {
			if err := sameState(cc, a); err != nil {
				t.Fatalf("batch and op-by-op state differ: %v", err)
			}
		}

		a0, b0 := a.c.Now(), b.c.Now()
		a.v.ReleaseFrameInfo(a.c, a.d)
		forceWalk(b.v, b.c, b.d)
		if costA, costB := a.c.Now()-a0, b.c.Now()-b0; costA != costB {
			t.Fatalf("releasing every pin cost %d, the walk %d", costA, costB)
		}
		for _, env := range []*mcFuzzEnv{a, b} {
			if err := env.v.FT.Equal(env.clean); err != nil {
				t.Fatalf("releasing every pin left accounting behind: %v", err)
			}
		}
	})
}
