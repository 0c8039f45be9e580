package xen

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/hw"
)

func testFT() *FrameTable {
	return NewFrameTable(hw.NewPhysMem(4 << 20))
}

func TestFrameTypeLifecycle(t *testing.T) {
	ft := testFT()
	if err := ft.GetType(5, FrameWritable); err != nil {
		t.Fatal(err)
	}
	if err := ft.GetType(5, FrameWritable); err != nil {
		t.Fatal(err)
	}
	if got := ft.Get(5); got.Type != FrameWritable || got.TypeCount != 2 {
		t.Fatalf("info = %+v", got)
	}
	ft.PutType(5)
	ft.PutType(5)
	if got := ft.Get(5); got.Type != FrameNone || got.TypeCount != 0 {
		t.Fatalf("after release: %+v", got)
	}
}

func TestFrameRetypeConflict(t *testing.T) {
	ft := testFT()
	if err := ft.GetType(7, FrameL1); err != nil {
		t.Fatal(err)
	}
	// A live page table must never become writable (§5.1.2).
	if err := ft.GetType(7, FrameWritable); err == nil {
		t.Fatal("page-table frame became writable")
	}
	ft.PutType(7)
	// Once the count drops to zero, re-typing is legal.
	if err := ft.GetType(7, FrameWritable); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRefUnderflowPanics(t *testing.T) {
	ft := testFT()
	defer func() {
		if recover() == nil {
			t.Fatal("expected underflow panic")
		}
	}()
	ft.PutRef(3)
}

func TestFrameTypeUnderflowPanics(t *testing.T) {
	ft := testFT()
	defer func() {
		if recover() == nil {
			t.Fatal("expected underflow panic")
		}
	}()
	ft.PutType(3)
}

func TestFrameInvariants(t *testing.T) {
	ft := testFT()
	ft.GetRef(1)
	ft.GetType(1, FrameWritable)
	if err := ft.CheckInvariants(); err != nil {
		t.Fatalf("valid state flagged: %v", err)
	}
	// Corrupt: typed ref without existence ref.
	ft2 := testFT()
	ft2.GetType(2, FrameL1)
	if err := ft2.CheckInvariants(); err == nil {
		t.Fatal("type count > total refs not detected")
	}
}

func TestFrameTableCloneEqualReset(t *testing.T) {
	ft := testFT()
	ft.SetOwner(3, 7)
	ft.GetRef(3)
	ft.GetType(3, FrameWritable)
	cp := ft.Clone()
	if err := ft.Equal(cp); err != nil {
		t.Fatalf("clone differs: %v", err)
	}
	cp.GetRef(4)
	if err := ft.Equal(cp); err == nil {
		t.Fatal("difference not detected")
	}
	ft.Reset()
	if got := ft.Get(3); got.TypeCount != 0 || got.TotalRefs != 0 {
		t.Fatal("reset incomplete")
	}
	if got := ft.Get(3); got.Owner != 7 {
		t.Fatal("reset dropped ownership")
	}
}

// Property: any sequence of balanced get/put operations keeps the
// invariants and ends with zero counts.
func TestFrameAccountingBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ft := testFT()
		type held struct {
			pfn   hw.PFN
			typed bool
		}
		var refs []held
		for op := 0; op < 300; op++ {
			pfn := hw.PFN(rng.Intn(32))
			switch rng.Intn(3) {
			case 0: // take an existence ref
				ft.GetRef(pfn)
				refs = append(refs, held{pfn, false})
			case 1: // take a typed+existence ref pair
				if err := ft.GetType(pfn, FrameWritable); err == nil {
					ft.GetRef(pfn)
					refs = append(refs, held{pfn, true})
				}
			case 2: // release something
				if len(refs) > 0 {
					i := rng.Intn(len(refs))
					h := refs[i]
					refs = append(refs[:i], refs[i+1:]...)
					if h.typed {
						ft.PutType(h.pfn)
					}
					ft.PutRef(h.pfn)
				}
			}
			if err := ft.CheckInvariants(); err != nil {
				return false
			}
		}
		for _, h := range refs {
			if h.typed {
				ft.PutType(h.pfn)
			}
			ft.PutRef(h.pfn)
		}
		for pfn := 0; pfn < 32; pfn++ {
			fi := ft.Get(hw.PFN(pfn))
			if fi.TypeCount != 0 || fi.TotalRefs != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRecordSize: a frame's record stays 16 bytes, four to a
// cache line, so a reference update touches one line.
func TestFrameRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n != 16 {
		t.Fatalf("frame record is %d bytes, want 16", n)
	}
}
