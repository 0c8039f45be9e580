package guest_test

import (
	"slices"

	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/pgtable"
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

// midBatchProbe is one timer interrupt armed inside a 410-page
// Mprotect: off is its deadline after the call starts, at when the
// handler ran (cycles after the start) and stored how many of the
// VMA's entries already held the new protection then.
type midBatchProbe struct {
	off, at hw.Cycles
	stored  int
}

// midBatchProbes arms, on system key with the lazy MMU on, a timer
// interrupt at each of sixteen points of one 410-page Mprotect (eight
// spread over its first tenth, eight over the whole call), and returns
// the Mprotect's length in cycles and what each probe's handler saw.
func midBatchProbes(t *testing.T, key bench.SystemKey) (hw.Cycles, []midBatchProbe) {
	t.Helper()
	const pages = 410
	s, err := bench.Build(key, bench.Options{Policy: core.TrackRecompute, LazyMMU: true})
	if err != nil {
		t.Fatal(err)
	}
	var span hw.Cycles
	var probes []midBatchProbe
	s.Run("midbatch", func(p *guest.Proc) {
		base := p.Mmap(pages, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, pages, true)
		var slots []pgtable.Slot
		p.AS.PT.VisitRange(base, base+pages<<hw.PageShift, func(m pgtable.Mapping) bool {
			slots = append(slots, m.Slot)
			return true
		})
		prot := guest.ProtRead
		c := p.CPU()
		start := c.Now()
		p.Mprotect(base, prot)
		span = c.Now() - start
		for j := 1; j <= 16; j++ {
			prot ^= guest.ProtWrite
			c = p.CPU()
			fired := false
			var pr midBatchProbe
			p.K.AddTimer(c, 0, func(c *hw.CPU) {
				fired = true
				pr.at = c.Now()
				for _, sl := range slots {
					if hw.ReadPTE(s.M.Mem, sl.Table, sl.Index).Writable() == (prot&guest.ProtWrite != 0) {
						pr.stored++
					}
				}
			})
			start := c.Now()
			pr.off = span * hw.Cycles(j) / 90
			if j > 8 {
				pr.off = span * hw.Cycles(j-8) / 9
			}
			c.LAPIC.ArmTimer(start+pr.off, hw.VecTimer)
			p.Mprotect(base, prot)
			if !fired {
				t.Fatalf("%s: the timer armed %d cycles into the Mprotect never fired", key, pr.off)
			}
			pr.at -= start
			probes = append(probes, pr)
		}
	})
	return span, probes
}

// TestTimerInsideMprotectBatch pins where a timer interrupt falling
// inside a 410-page Mprotect lands: natively on M-N, where interrupts
// are enabled between the batch's entry stores, and on M-V with the
// lazy MMU, where the stores ride one multicall. Each probe's handler
// records the cycle it ran at and how many entries were already
// stored. Any change to how the batch sites charge their entries must
// keep every delivery cycle and every stored count.
func TestTimerInsideMprotectBatch(t *testing.T) {
	for _, tc := range []struct {
		key  bench.SystemKey
		span hw.Cycles
		want []midBatchProbe
	}{
		{bench.MN, 5898, []midBatchProbe{
			{65, 828, 0},
			{131, 828, 0},
			{196, 866, 0},
			{262, 916, 0},
			{327, 976, 5},
			{393, 1048, 11},
			{458, 1108, 16},
			{524, 1180, 22},
			{655, 1312, 33},
			{1310, 1960, 87},
			{1966, 2622, 139},
			{2621, 3270, 193},
			{3276, 3930, 248},
			{3932, 4580, 299},
			{4587, 5240, 354},
			{5242, 5890, 405},
		}},
		{bench.MV, 128526, []midBatchProbe{
			{1428, 2878, 0},
			{2856, 4308, 0},
			{4284, 6394, 0},
			{5712, 129974, 410},
			{7140, 129974, 410},
			{8568, 129974, 410},
			{9996, 129974, 410},
			{11424, 129974, 410},
			{14280, 129974, 410},
			{28561, 129974, 410},
			{42842, 129974, 410},
			{57122, 129974, 410},
			{71403, 129974, 410},
			{85684, 129974, 410},
			{99964, 129974, 410},
			{114245, 129974, 410},
		}},
	} {
		span, got := midBatchProbes(t, tc.key)
		if span != tc.span || !slices.Equal(got, tc.want) {
			t.Errorf("%s: Mprotect took %d cycles with probes\n%#v\nwant %d cycles with\n%#v",
				tc.key, span, got, tc.span, tc.want)
		}
	}
}
