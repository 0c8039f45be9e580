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

func BenchmarkReleaseFrameInfo(b *testing.B) {
	v, d, c := testVMMSized(b, 64<<20)
	roots := buildForest(b, v, d, 10, 410)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := v.RecomputeFrameInfo(c, d, roots, 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		v.ReleaseFrameInfo(c, d)
	}
}
