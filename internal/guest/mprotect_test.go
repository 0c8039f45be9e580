package guest_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
)

// mprotectMode is one configuration Mprotect is measured in on M-N.
type mprotectMode struct {
	name    string
	virtual bool // attached first: every store is an mmu_update
	lazy    bool // the lazy MMU on: a virtual Mprotect's stores ride a multicall
}

// mprotectModes are native, and attached with and without the lazy
// MMU: one multicall of every entry, or HypMMUUpdate batches.
var mprotectModes = []mprotectMode{
	{"native", false, true},
	{"virtual-lazy", true, true},
	{"virtual-eager", true, false},
}

// withVMA runs body in a process on M-N in mode, after mapping and
// touching one anonymous VMA of pages pages.
func withVMA(t testing.TB, pages int, mode mprotectMode, body func(p *guest.Proc, base hw.VirtAddr)) {
	t.Helper()
	s, err := bench.Build(bench.MN, bench.Options{Policy: core.TrackRecompute, LazyMMU: mode.lazy})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("mprotect", func(p *guest.Proc) {
		base := p.Mmap(pages, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, pages, true)
		if mode.virtual {
			if err := s.Mercury.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
				t.Fatal(err)
			}
		}
		body(p, base)
	})
}

// mprotectAllocs is the heap allocations of one Mprotect of a
// pages-page VMA in mode.
func mprotectAllocs(t *testing.T, pages int, mode mprotectMode) float64 {
	var allocs float64
	withVMA(t, pages, mode, func(p *guest.Proc, base hw.VirtAddr) {
		prot := guest.ProtRead
		allocs = testing.AllocsPerRun(20, func() {
			p.Mprotect(base, prot)
			prot ^= guest.ProtWrite
		})
	})
	return allocs
}

// TestMprotectAllocsIndependentOfSize: Mprotect sizes its update batch
// once, and the lazy buffer its multicall, so a 512-page VMA costs the
// heap no more allocations than an 8-page one, native or virtual.
func TestMprotectAllocsIndependentOfSize(t *testing.T) {
	for _, mode := range mprotectModes {
		small, large := mprotectAllocs(t, 8, mode), mprotectAllocs(t, 512, mode)
		if small != large {
			t.Errorf("%s: Mprotect allocates %.0f times on 8 pages but %.0f on 512", mode.name, small, large)
		}
	}
}

// BenchmarkMprotect times one Mprotect of a VMA the size of one
// switch-cycle resident (~410 pages) on M-N, native and attached.
func BenchmarkMprotect(b *testing.B) {
	for _, mode := range mprotectModes {
		b.Run(mode.name, func(b *testing.B) {
			withVMA(b, 410, mode, func(p *guest.Proc, base hw.VirtAddr) {
				prot := guest.ProtRead
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					p.Mprotect(base, prot)
					prot ^= guest.ProtWrite
				}
			})
		})
	}
}
