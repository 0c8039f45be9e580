package xen

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/hw"
)

// fuzzFrames is the size of FuzzFrameTable's table: small, so that ops
// collide on frames, and so that every frame is checked after every op.
const fuzzFrames = 16

// frameModel is FuzzFrameTable's reference: a plain map of frame infos,
// every frame starting owned by DomNone, the set of frames mutated
// since the last Reset, the table's epoch, and what the last keep saved.
type frameModel struct {
	fi      map[hw.PFN]FrameInfo
	touched map[hw.PFN]bool
	epoch   uint32
	kept    *frameKeep // nil: no keep to rewind to
}

// frameKeep is a kept epoch: every frame's info and the touched set as
// the keep found them, and whether a kept record has been cleared since.
type frameKeep struct {
	epoch   uint32
	fi      map[hw.PFN]FrameInfo
	touched map[hw.PFN]bool
	spoiled bool
}

func (m *frameModel) put(pfn hw.PFN, fi FrameInfo) {
	m.fi[pfn] = fi
	m.touched[pfn] = true
}

// renew is the clear a table op makes before it mutates pfn's record:
// a record the keep kept and this epoch has not touched is cleared,
// which spoils the keep.
func (m *frameModel) renew(pfn hw.PFN) {
	if m.kept != nil && m.kept.touched[pfn] && !m.touched[pfn] {
		m.kept.spoiled = true
	}
}

// reset forgets every frame's accounting and the keep, and starts the
// next epoch.
func (m *frameModel) reset() {
	for p, fi := range m.fi {
		m.fi[p] = FrameInfo{Owner: fi.Owner}
	}
	clear(m.touched)
	m.kept = nil
	m.epoch++
	if m.epoch == 0 {
		m.epoch = 1
	}
}

// keep saves the epoch, then resets; a keep the wrap crosses is dropped.
func (m *frameModel) keep() {
	k := &frameKeep{epoch: m.epoch, fi: maps.Clone(m.fi), touched: maps.Clone(m.touched)}
	m.reset()
	if k.epoch != math.MaxUint32 {
		m.kept = k
	}
}

// rewind returns to the kept epoch, owners as they are now, when
// nothing was touched and no kept record cleared since the keep.
func (m *frameModel) rewind() bool {
	k := m.kept
	if k == nil || k.spoiled || len(m.touched) != 0 {
		return false
	}
	for p, fi := range k.fi {
		fi.Owner = m.fi[p].Owner
		m.fi[p] = fi
	}
	m.touched, m.epoch, m.kept = k.touched, k.epoch, nil
	return true
}

// checkInvariants is FrameTable.CheckInvariants on the model.
func (m *frameModel) checkInvariants() string {
	for p := hw.PFN(0); p < fuzzFrames; p++ {
		fi := m.fi[p]
		switch {
		case fi.TypeCount > fi.TotalRefs:
			return fmt.Sprintf("xen: frame %d: type count %d exceeds total refs %d",
				p, fi.TypeCount, fi.TotalRefs)
		case fi.TypeCount > 0 && fi.Type == FrameNone:
			return fmt.Sprintf("xen: frame %d: %d typed refs but type none", p, fi.TypeCount)
		case fi.TypeCount == 0 && fi.Type != FrameNone:
			return fmt.Sprintf("xen: frame %d: type %s with zero count", p, fi.Type)
		case fi.Pinned && fi.TypeCount == 0:
			return fmt.Sprintf("xen: frame %d pinned without a typed ref", p)
		}
	}
	return ""
}

// firstPinned is FrameTable.FirstPinned on the model.
func (m *frameModel) firstPinned() (hw.PFN, bool) {
	for p := hw.PFN(0); p < fuzzFrames; p++ {
		if m.fi[p].Pinned {
			return p, true
		}
	}
	return 0, false
}

// The model's ops return the error or the panic message the frame
// table must produce.

func (m *frameModel) getType(pfn hw.PFN, want FrameType) (string, string) {
	m.renew(pfn)
	fi := m.fi[pfn]
	if fi.TypeCount != 0 && fi.Type != want {
		return fmt.Sprintf("xen: frame %d is %s(count %d), cannot become %s",
			pfn, fi.Type, fi.TypeCount, want), ""
	}
	fi.Type = want
	fi.TypeCount++
	m.put(pfn, fi)
	return "", ""
}

func (m *frameModel) putType(pfn hw.PFN) (string, string) {
	m.renew(pfn)
	fi := m.fi[pfn]
	if fi.TypeCount == 0 {
		return "", fmt.Sprintf("xen: type count underflow on frame %d", pfn)
	}
	fi.TypeCount--
	if fi.TypeCount == 0 {
		fi.Type = FrameNone
	}
	m.put(pfn, fi)
	return "", ""
}

func (m *frameModel) getRef(pfn hw.PFN) (string, string) {
	m.renew(pfn)
	fi := m.fi[pfn]
	fi.TotalRefs++
	m.put(pfn, fi)
	return "", ""
}

func (m *frameModel) putRef(pfn hw.PFN) (string, string) {
	m.renew(pfn)
	fi := m.fi[pfn]
	if fi.TotalRefs == 0 {
		return "", fmt.Sprintf("xen: total ref underflow on frame %d", pfn)
	}
	fi.TotalRefs--
	m.put(pfn, fi)
	return "", ""
}

// refMapping is VMM.refMapping built from the unfused model ops.
func (m *frameModel) refMapping(d *Domain, pte hw.PTE) (string, string) {
	pfn := pte.Frame()
	if pfn >= fuzzFrames {
		return fmt.Sprintf("xen: mapping of nonexistent frame %d", pfn), ""
	}
	if owner := m.fi[pfn].Owner; d != nil && owner != d.ID {
		return fmt.Sprintf("xen: dom%d mapping foreign frame %d (owner dom%d)",
			d.ID, pfn, owner), ""
	}
	if pte.Writable() {
		if e, _ := m.getType(pfn, FrameWritable); e != "" {
			return e, ""
		}
	}
	return m.getRef(pfn)
}

// unrefMapping is VMM.unrefMapping built from the unfused model ops.
func (m *frameModel) unrefMapping(pte hw.PTE) (string, string) {
	pfn := pte.Frame()
	if pte.Writable() {
		if _, p := m.putType(pfn); p != "" {
			return "", p
		}
	}
	return m.putRef(pfn)
}

// outcome runs op and reports its error and its panic message.
func outcome(op func() error) (errMsg, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	if err := op(); err != nil {
		errMsg = err.Error()
	}
	return
}

// FuzzFrameTable drives the frame table, and the fused reference
// updates the page-table walks make on it, with a byte-coded op stream
// against a map model. Beside the reference updates, Set, SetOwner and
// Reset, the ops keep an epoch (the model saves it and forgets),
// rewind to it (taken exactly where the model says restoreKept may
// take it: nothing touched and no kept record cleared since), and jump
// the epoch to the last few before the stamp wraps, so a keep can
// cross the wrap and must be dropped. After every op each frame's
// info, the touched count, the epoch, each op's error or panic,
// CheckInvariants, FirstPinned, and Equal against a table built from
// the model and against a Clone must match the model.
func FuzzFrameTable(f *testing.F) {
	// A writable mapping taken and dropped (TestMMUUpdateRefMovement).
	f.Add([]byte{9, 3, 1, 10, 3, 1})
	// A typed page table refusing a writable mapping, then a Reset.
	f.Add([]byte{0, 5, 1, 2, 5, 0, 9, 5, 1, 7, 0, 0, 0, 5, 0})
	// Underflows, a foreign frame, a nonexistent frame, a clone.
	f.Add([]byte{3, 2, 0, 1, 2, 0, 6, 4, 0, 9, 4, 0, 9, 18, 0, 8, 0, 0, 10, 4, 1})
	// A Set entry whose typed count exceeds its refs, dropped by unref.
	f.Add([]byte{5, 6, 0x15, 10, 6, 1, 4, 6, 1, 7, 0, 0})
	// A forged record that breaks the invariants, forgotten by a Reset.
	f.Add([]byte{5, 6, 0x15, 4, 6, 1, 7, 0, 0, 2, 7, 0})
	// A keep and a rewind, across an owner change and a clone.
	f.Add([]byte{0, 5, 0, 2, 5, 0, 4, 5, 1, 11, 0, 0, 6, 5, 1, 8, 0, 0, 12, 0, 0, 2, 5, 0})
	// A refused drop of a kept record clears it: the rewind is refused.
	f.Add([]byte{0, 5, 0, 11, 0, 0, 1, 5, 0, 12, 0, 0})
	// A touch after the keep refuses the rewind; a second keep rewinds.
	f.Add([]byte{2, 3, 0, 11, 0, 0, 2, 4, 0, 12, 0, 0, 11, 0, 0, 12, 0, 0})
	// A keep in the last epoch before the wrap is dropped; one before
	// it rewinds.
	f.Add([]byte{13, 0, 0, 2, 3, 0, 11, 0, 0, 12, 0, 0, 13, 0, 1, 2, 3, 0, 11, 0, 0, 12, 0, 0})

	owners := []DomID{Dom0, 1, DomVMM, DomNone}
	f.Fuzz(func(t *testing.T, ops []byte) {
		mem := hw.NewPhysMem(fuzzFrames << hw.PageShift)
		ft := NewFrameTable(mem)
		v := &VMM{M: &hw.Machine{Mem: mem}, FT: ft}
		m := &frameModel{fi: map[hw.PFN]FrameInfo{}, touched: map[hw.PFN]bool{}, epoch: 1}
		for p := hw.PFN(0); p < fuzzFrames; p++ {
			m.fi[p] = FrameInfo{Owner: DomNone}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := ops[i+1], ops[i+2]
			pfn := hw.PFN(a % fuzzFrames)
			var got, want [2]string
			switch op := ops[i] % 14; op {
			case 0:
				typ := FrameType(b%3 + 1)
				got[0], got[1] = outcome(func() error { return v.FT.GetType(pfn, typ) })
				want[0], want[1] = m.getType(pfn, typ)
			case 1:
				got[0], got[1] = outcome(func() error { v.FT.PutType(pfn); return nil })
				want[0], want[1] = m.putType(pfn)
			case 2:
				got[0], got[1] = outcome(func() error { v.FT.GetRef(pfn); return nil })
				want[0], want[1] = m.getRef(pfn)
			case 3:
				got[0], got[1] = outcome(func() error { v.FT.PutRef(pfn); return nil })
				want[0], want[1] = m.putRef(pfn)
			case 4:
				v.FT.setPinned(pfn, b&1 != 0)
				m.renew(pfn)
				fi := m.fi[pfn]
				fi.Pinned = b&1 != 0
				m.put(pfn, fi)
			case 5:
				fi := FrameInfo{Owner: owners[int(a>>4)%len(owners)], Type: FrameType(b % 4),
					TypeCount: uint32(b >> 2 & 3), TotalRefs: uint32(b >> 4 & 3), Pinned: b&0x40 != 0}
				v.FT.Set(pfn, fi)
				m.renew(pfn)
				m.put(pfn, fi)
			case 6:
				v.FT.SetOwner(pfn, owners[int(b)%len(owners)])
				fi := m.fi[pfn]
				fi.Owner = owners[int(b)%len(owners)]
				m.fi[pfn] = fi
			case 7:
				v.FT.Reset()
				m.reset()
			case 8:
				cp := v.FT.Clone()
				if err := v.FT.Equal(cp); err != nil || cp.Touched() != v.FT.Touched() {
					t.Fatalf("op %d: clone differs (%v), or touches %d of %d",
						i/3, err, cp.Touched(), v.FT.Touched())
				}
				v.FT = cp
			case 9, 10:
				// A synthetic present PTE; frames past the table are
				// nonexistent, and b's second bit maps it as no domain.
				pte := hw.MakePTE(hw.PFN(a%(fuzzFrames+4)), hw.PTEPresent|uint32(b&1)*hw.PTEWrite)
				if op == 10 {
					if pte.Frame() >= fuzzFrames {
						continue
					}
					got[0], got[1] = outcome(func() error { v.unrefMapping(pte); return nil })
					want[0], want[1] = m.unrefMapping(pte)
					break
				}
				d := &Domain{ID: 1}
				if b&2 != 0 {
					d = nil
				}
				got[0], got[1] = outcome(func() error { return v.refMapping(d, pte) })
				want[0], want[1] = m.refMapping(d, pte)
			case 11:
				v.FT.keep()
				m.keep()
			case 12:
				if g, w := v.FT.rewind(), m.rewind(); g != w {
					t.Fatalf("op %d (%v): rewind %v, model %v", i/3, ops[i:i+3], g, w)
				}
			case 13:
				// As if every epoch up to the last few before the wrap
				// had been reset with nothing touched.
				v.FT.Reset()
				m.reset()
				if e := math.MaxUint32 - uint32(b%4); e > m.epoch {
					v.FT.epoch, m.epoch = e, e
				}
			}
			if got != want {
				t.Fatalf("op %d (%v): got error %q panic %q, want error %q panic %q",
					i/3, ops[i:i+3], got[0], got[1], want[0], want[1])
			}
			for p := hw.PFN(0); p < fuzzFrames; p++ {
				if g, w := v.FT.Get(p), m.fi[p]; g != w {
					t.Fatalf("op %d (%v): frame %d is %+v, model %+v", i/3, ops[i:i+3], p, g, w)
				}
			}
			if g, w := v.FT.Touched(), len(m.touched); g != w {
				t.Fatalf("op %d (%v): %d frames touched, model %d", i/3, ops[i:i+3], g, w)
			}
			if v.FT.epoch != m.epoch {
				t.Fatalf("op %d (%v): epoch %d, model %d", i/3, ops[i:i+3], v.FT.epoch, m.epoch)
			}
			checkScans(t, v.FT, m, pfn, fmt.Sprintf("op %d (%v)", i/3, ops[i:i+3]))
		}
	})
}

// checkScans requires CheckInvariants and FirstPinned to read the model,
// ft to Equal a table built from the model and a Clone of itself, and
// Equal to report a change to pfn's record.
func checkScans(t *testing.T, ft *FrameTable, m *frameModel, pfn hw.PFN, at string) {
	t.Helper()
	got := ""
	if err := ft.CheckInvariants(); err != nil {
		got = err.Error()
	}
	if want := m.checkInvariants(); got != want {
		t.Fatalf("%s: CheckInvariants %q, model %q", at, got, want)
	}
	gp, gok := ft.FirstPinned()
	if wp, wok := m.firstPinned(); gp != wp || gok != wok {
		t.Fatalf("%s: FirstPinned %d %v, model %d %v", at, gp, gok, wp, wok)
	}
	mt := NewFrameTable(hw.NewPhysMem(fuzzFrames << hw.PageShift))
	for p := hw.PFN(0); p < fuzzFrames; p++ {
		mt.Set(p, m.fi[p])
	}
	if err := ft.Equal(mt); err != nil {
		t.Fatalf("%s: table and model differ: %v", at, err)
	}
	if err := ft.Clone().Equal(ft); err != nil {
		t.Fatalf("%s: clone differs: %v", at, err)
	}
	fi := m.fi[pfn]
	fi.TotalRefs++
	mt.Set(pfn, fi)
	if ft.Equal(mt) == nil {
		t.Fatalf("%s: Equal missed frame %d's refs", at, pfn)
	}
}

// TestFrameTableEpochWrap: when the dirty-set epoch wraps, a frame last
// touched 2^32 epochs earlier must not read as already touched.
func TestFrameTableEpochWrap(t *testing.T) {
	ft := testFT()
	ft.GetRef(5) // stamped with epoch 1
	ft.Reset()
	// Skip to the last epoch as if 2^32-2 more Resets had passed with
	// frame 5 idle; frame 6 is dirtied in it.
	ft.epoch = math.MaxUint32
	ft.GetRef(6)
	ft.Reset() // wraps back to epoch 1
	if ft.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", ft.epoch)
	}
	if got := ft.Get(6); got.TotalRefs != 0 {
		t.Fatalf("Reset across the wrap kept frame 6's refs: %+v", got)
	}
	ft.GetRef(5)
	if ft.Touched() != 1 {
		t.Fatalf("frame 5 mutated after the wrap: %d frames touched, want 1", ft.Touched())
	}
	ft.Reset()
	if got := ft.Get(5); got.TotalRefs != 0 {
		t.Fatalf("frame 5 not cleared after the wrap: %+v", got)
	}
}
