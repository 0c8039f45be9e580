package xen

import "testing"

// The attach and detach scans over a working set the size of
// switch-cycle's: ten trees of 410 pages each, ~4,100 pages.

func BenchmarkRecomputeFrameInfo(b *testing.B) {
	v, d, c := testVMMSized(b, 64<<20)
	roots := buildForest(b, v, d, 10, 410)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		v.ReleaseFrameInfo(c, d)
		b.StartTimer()
	}
}

// BenchmarkReleaseFrameInfo times the detach's release: by the cost
// rule, and by the walk it falls back to, forced here by a grant map
// that dom0 holds on one of the guest's frames.
func BenchmarkReleaseFrameInfo(b *testing.B) {
	for _, walk := range []bool{false, true} {
		name := "rule"
		if walk {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			v, d, c := testVMMSized(b, 64<<20)
			roots := buildForest(b, v, d, 10, 410)
			if walk {
				ref := d.GrantAccess(c, Dom0, d.Frames.Alloc(), true)
				if _, _, err := v.GrantMap(c, v.Domains[Dom0], d.ID, ref, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				v.ReleaseFrameInfo(c, d)
			}
		})
	}
}
