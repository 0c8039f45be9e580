package xen

import "testing"

// The attach and detach scans over a working set the size of
// switch-cycle's: ten trees of 410 pages each, ~4,100 pages.

// BenchmarkRecomputeFrameInfo times the attach's recompute: by the cost
// rule, restoring what the detach kept, and by the walk it falls back
// to, forced here by a SetOwner call between the detach and the attach.
func BenchmarkRecomputeFrameInfo(b *testing.B) {
	for _, walk := range []bool{false, true} {
		name := "rule"
		if walk {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			v, d, c := testVMMSized(b, 64<<20)
			roots := buildForest(b, v, d, 10, 410)
			c.WriteCR3(roots[0]) // the base pointer the attach adopts
			detach := func() {
				v.ReleaseFrameInfo(c, d)
				if walk {
					v.FT.SetOwner(roots[0], d.ID)
				}
			}
			if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
				b.Fatal(err)
			}
			detach()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				detach()
				b.StartTimer()
			}
		})
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
