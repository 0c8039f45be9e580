package hw

import "testing"

func TestTLBInsertLookup(t *testing.T) {
	tlb := NewTLB()
	if _, _, _, ok := tlb.Lookup(5); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(5, 99, true, false, false)
	pfn, w, u, ok := tlb.Lookup(5)
	if !ok || pfn != 99 || !w || u {
		t.Fatalf("lookup = (%d,%v,%v,%v)", pfn, w, u, ok)
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("stats: hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(5, 99, false, false, false)
	tlb.Invalidate(5)
	if _, _, _, ok := tlb.Lookup(5); ok {
		t.Fatal("invalidated entry hit")
	}
	// Invalidating a different VPN mapped to the same slot is a no-op.
	tlb.Insert(5, 99, false, false, false)
	tlb.Invalidate(5 + 64)
	if _, _, _, ok := tlb.Lookup(5); !ok {
		t.Fatal("wrong entry invalidated")
	}
}

func TestTLBFlushSparesGlobal(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(1, 10, false, false, false)
	tlb.Insert(2, 20, false, false, true) // global
	tlb.Flush()
	if _, _, _, ok := tlb.Lookup(1); ok {
		t.Fatal("flush kept non-global entry")
	}
	if _, _, _, ok := tlb.Lookup(2); !ok {
		t.Fatal("flush dropped global entry")
	}
	tlb.FlushAll()
	if _, _, _, ok := tlb.Lookup(2); ok {
		t.Fatal("FlushAll kept global entry")
	}
}

func TestTLBConflictEviction(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(3, 30, false, false, false)
	tlb.Insert(3+64, 40, false, false, false) // same direct-mapped slot
	if _, _, _, ok := tlb.Lookup(3); ok {
		t.Fatal("evicted entry still hits")
	}
	if pfn, _, _, ok := tlb.Lookup(3 + 64); !ok || pfn != 40 {
		t.Fatal("conflicting entry lost")
	}
}
