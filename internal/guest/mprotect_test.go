package guest_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
)

// withVMA runs body in a process on M-N with the lazy MMU on, after
// mapping and touching one anonymous VMA of pages pages.
func withVMA(t testing.TB, pages int, body func(p *guest.Proc, base hw.VirtAddr)) {
	t.Helper()
	s, err := bench.Build(bench.MN, bench.Options{Policy: core.TrackRecompute, LazyMMU: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("mprotect", func(p *guest.Proc) {
		base := p.Mmap(pages, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, pages, true)
		body(p, base)
	})
}

// mprotectAllocs is the heap allocations of one Mprotect of a
// pages-page VMA.
func mprotectAllocs(t *testing.T, pages int) float64 {
	var allocs float64
	withVMA(t, pages, func(p *guest.Proc, base hw.VirtAddr) {
		prot := guest.ProtRead
		allocs = testing.AllocsPerRun(20, func() {
			p.Mprotect(base, prot)
			prot ^= guest.ProtWrite
		})
	})
	return allocs
}

// TestMprotectAllocsIndependentOfSize: Mprotect sizes its update batch
// once, so a 512-page VMA costs the heap no more allocations than an
// 8-page one.
func TestMprotectAllocsIndependentOfSize(t *testing.T) {
	small, large := mprotectAllocs(t, 8), mprotectAllocs(t, 512)
	if small != large {
		t.Fatalf("Mprotect allocates %.0f times on 8 pages but %.0f on 512", small, large)
	}
}

// BenchmarkMprotect times one Mprotect of a VMA the size of one
// switch-cycle resident (~410 pages) on M-N.
func BenchmarkMprotect(b *testing.B) {
	withVMA(b, 410, func(p *guest.Proc, base hw.VirtAddr) {
		prot := guest.ProtRead
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			p.Mprotect(base, prot)
			prot ^= guest.ProtWrite
		}
	})
}
