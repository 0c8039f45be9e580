package hw

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPhysMemWordRoundTrip(t *testing.T) {
	m := NewPhysMem(1 << 20)
	m.WriteWord(0x1000, 0xDEADBEEF)
	if got := m.ReadWord(0x1000); got != 0xDEADBEEF {
		t.Fatalf("ReadWord = %#x", got)
	}
	// Little-endian layout.
	if b := m.Load8(0x1000); b != 0xEF {
		t.Fatalf("byte 0 = %#x, want 0xEF", b)
	}
	if b := m.Load8(0x1003); b != 0xDE {
		t.Fatalf("byte 3 = %#x, want 0xDE", b)
	}
}

func TestPhysMemZeroDefault(t *testing.T) {
	m := NewPhysMem(1 << 20)
	if got := m.ReadWord(0x4000); got != 0 {
		t.Fatalf("untouched memory reads %#x", got)
	}
}

func TestPhysMemCopyZeroFrame(t *testing.T) {
	m := NewPhysMem(1 << 20)
	m.WriteWord(PFN(3).Addr()+8, 42)
	m.CopyFrame(5, 3)
	if got := m.ReadWord(PFN(5).Addr() + 8); got != 42 {
		t.Fatalf("copied frame reads %d", got)
	}
	m.ZeroFrame(5)
	if got := m.ReadWord(PFN(5).Addr() + 8); got != 0 {
		t.Fatalf("zeroed frame reads %d", got)
	}
}

func TestPhysMemOutOfRangePanics(t *testing.T) {
	m := NewPhysMem(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReadWord(2 << 20)
}

func TestAddressHelpers(t *testing.T) {
	if PFNOf(0x5123) != 5 {
		t.Fatalf("PFNOf = %d", PFNOf(0x5123))
	}
	if PFN(5).Addr() != 0x5000 {
		t.Fatalf("Addr = %#x", PFN(5).Addr())
	}
	if VPNOf(0xC0001234) != 0xC0001 {
		t.Fatalf("VPNOf = %#x", VPNOf(0xC0001234))
	}
	if VPN(0xC0001).Addr() != 0xC0001000 {
		t.Fatalf("VPN.Addr = %#x", VPN(0xC0001).Addr())
	}
}

// Property: word writes at distinct aligned addresses never interfere.
func TestPhysMemWriteIsolation(t *testing.T) {
	m := NewPhysMem(1 << 22)
	f := func(a, b uint16, va, vb uint32) bool {
		pa := PhysAddr(a) * 4
		pb := PhysAddr(b) * 4
		if pa == pb {
			return true
		}
		m.WriteWord(pa, va)
		m.WriteWord(pb, vb)
		return m.ReadWord(pa) == va && m.ReadWord(pb) == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A read of a frame that was never written must not allocate, and
// neither may word access to a frame that already has its own bytes.
func TestPhysMemAccessAllocs(t *testing.T) {
	m := NewPhysMem(1 << 20)
	var sink uint32
	next := PFN(0)
	// Each run reads 64 frames no earlier run touched.
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64; i++ {
			sink += m.ReadWord(next.Addr())
			next++
		}
	}); a != 0 {
		t.Fatalf("ReadWord of 64 never-written frames allocates %.0f", a)
	}
	m.WriteWord(0x3000, 1)
	if a := testing.AllocsPerRun(100, func() {
		m.WriteWord(0x3004, sink)
		sink += m.ReadWord(0x3000)
	}); a != 0 {
		t.Fatalf("word access to a private frame allocates %.1f", a)
	}
}

func TestCollectDirtyAscendingAndClears(t *testing.T) {
	m := NewPhysMem(1 << 20)
	if m.CollectDirty() != nil {
		t.Fatal("CollectDirty with logging off must be nil")
	}
	m.EnableDirtyLog()
	for _, pfn := range []PFN{9, 2, 200, 5, 2} {
		m.WriteWord(pfn.Addr(), 1)
	}
	m.ZeroFrame(7) // never written: nothing to clear, not a write
	if got, want := m.CollectDirty(), []PFN{2, 5, 9, 200}; !slices.Equal(got, want) {
		t.Fatalf("CollectDirty = %v, want %v", got, want)
	}
	if got := m.CollectDirty(); got == nil || len(got) != 0 {
		t.Fatalf("second CollectDirty = %v, want empty", got)
	}
	m.Store8(PFN(3).Addr(), 1)
	m.DisableDirtyLog()
	m.EnableDirtyLog()
	if got := m.CollectDirty(); len(got) != 0 {
		t.Fatalf("DisableDirtyLog kept %v", got)
	}
}
