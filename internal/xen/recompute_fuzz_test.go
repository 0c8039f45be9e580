package xen

import (
	"testing"

	"repro/internal/hw"
)

// fuzzInput hands out the fuzz bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// buildFuzzForest builds FuzzRecomputeShards' page-table forest in d's
// frames: up to five roots of up to three PDEs each, every PDE reaching
// either a private L1 or one of up to two L1s shared across roots, and
// every L1 mapping a few frames of a shared data pool, read-only or
// writable. One leaf entry in sixteen maps a page-table frame instead,
// which the walk must refuse when the mapping is writable. It returns
// the roots and, for each root, the L1s its PDEs reach.
func buildFuzzForest(v *VMM, d *Domain, in *fuzzInput) ([]hw.PFN, [][]hw.PFN) {
	var pool [6]hw.PFN
	for i := range pool {
		pool[i] = d.Frames.Alloc()
	}
	var tables []hw.PFN
	newTable := func() hw.PFN {
		pt := d.Frames.Alloc()
		tables = append(tables, pt)
		return pt
	}
	newL1 := func() hw.PFN {
		l1 := newTable()
		n := int(in.next() % 5)
		for i := 0; i < n; i++ {
			kind, sel := in.next(), int(in.next())
			target := pool[sel%len(pool)]
			if kind%16 == 0 {
				target = tables[sel%len(tables)]
			}
			flags := uint32(hw.PTEPresent | hw.PTEUser)
			if kind&0x10 != 0 {
				flags |= hw.PTEWrite
			}
			hw.WritePTE(v.M.Mem, l1, i, hw.MakePTE(target, flags))
		}
		return l1
	}
	shared := make([]hw.PFN, in.next()%3)
	for i := range shared {
		shared[i] = newL1()
	}
	roots := make([]hw.PFN, 1+in.next()%5)
	reach := make([][]hw.PFN, len(roots))
	for i := range roots {
		roots[i] = newTable()
		for j := 0; j < int(in.next()%4); j++ {
			var l1 hw.PFN
			if b := in.next(); len(shared) > 0 && b&1 != 0 {
				l1 = shared[int(b>>1)%len(shared)]
			} else {
				l1 = newL1()
			}
			hw.WritePTE(v.M.Mem, roots[i], j, hw.MakePTE(l1, hw.PTEPresent|hw.PTEUser))
			reach[i] = append(reach[i], l1)
		}
	}
	return roots, reach
}

// FuzzRecomputeShards checks the sharded recompute against the one-CPU
// walk on forests built from the fuzz input. For every worker count the
// outcome must be one worker's, error text included; a success must
// build the same frame table and pins, and a failure must leave the
// table as it was and pin nothing. RecomputeFallbacks must rise exactly
// when some L1 is reachable from roots in two shards.
func FuzzRecomputeShards(f *testing.F) {
	// A shared L1 reached from roots 0 and 1: a conflict on 2-4 workers.
	f.Add([]byte{1, 2, 0x11, 0, 0x01, 1, 2, 2, 1, 0, 1, 0x11, 2, 1, 1, 1, 0, 2, 0x11, 0, 0x00, 3})
	// A shared L1 reached from roots 0 and 2: one shard on 2 workers.
	f.Add([]byte{1, 1, 0x11, 4, 2, 1, 1, 1, 0, 2, 0x01, 5, 0x11, 5, 1, 1})
	// An L1 mapping its root writable: every walk fails.
	f.Add([]byte{0, 1, 1, 0, 1, 0x10, 0})
	// Four disjoint trees sharing writable data frames.
	f.Add([]byte{0, 3, 1, 0, 2, 0x11, 0, 0x11, 1, 2, 0, 1, 0x01, 0, 0, 1, 0, 3, 0x01, 0, 0x11, 2, 0x00, 1, 1, 0, 1, 0x11, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, d, c := testVMMSized(t, 20<<20)
		in := fuzzInput(data)
		roots, reach := buildFuzzForest(v, d, &in)
		clean := v.FT.Clone()

		pinned := func() int {
			n := 0
			for _, r := range roots {
				if d.HasPinned(r) {
					n++
				}
			}
			return n
		}
		// release detaches and requires the table to be clean again.
		release := func(workers int) {
			v.ReleaseFrameInfo(c, d)
			if err := v.FT.Equal(clean); err != nil {
				t.Fatalf("%d workers: release left accounting behind: %v", workers, err)
			}
		}

		serialErr := v.RecomputeFrameInfo(c, d, roots, 1)
		serial := v.FT.Clone()
		if serialErr != nil {
			if err := v.FT.Equal(clean); err != nil {
				t.Fatalf("failed serial walk left state behind: %v", err)
			}
		} else {
			if n := pinned(); n != len(roots) {
				t.Fatalf("serial walk pinned %d of %d roots", n, len(roots))
			}
			release(1)
		}

		for workers := 2; workers <= 4; workers++ {
			shards := min(workers, len(roots))
			conflict := false
			first := map[hw.PFN]int{}
			for i, l1s := range reach {
				for _, l1 := range l1s {
					if s, ok := first[l1]; !ok {
						first[l1] = i % shards
					} else if s != i%shards {
						conflict = true
					}
				}
			}

			before := v.Stats.RecomputeFallbacks.Load()
			err := v.RecomputeFrameInfo(c, d, roots, workers)
			fallbacks := v.Stats.RecomputeFallbacks.Load() - before
			if (err == nil) != (serialErr == nil) ||
				(err != nil && err.Error() != serialErr.Error()) {
				t.Fatalf("%d workers: outcome %v, one worker's %v", workers, err, serialErr)
			}
			if err != nil {
				if eerr := v.FT.Equal(clean); eerr != nil {
					t.Fatalf("%d workers: failed recompute left state behind: %v", workers, eerr)
				}
				if n := pinned(); n != 0 {
					t.Fatalf("%d workers: failed recompute pinned %d roots", workers, n)
				}
				if fallbacks != 0 {
					t.Fatalf("%d workers: failed recompute counted %d fallbacks", workers, fallbacks)
				}
				continue
			}
			if eerr := v.FT.Equal(serial); eerr != nil {
				t.Fatalf("%d workers: frame table diverges from one worker's: %v", workers, eerr)
			}
			if n := pinned(); n != len(roots) {
				t.Fatalf("%d workers: pinned %d of %d roots", workers, n, len(roots))
			}
			want := uint64(0)
			if conflict {
				want = 1
			}
			if fallbacks != want {
				t.Fatalf("%d workers: %d fallbacks, want %d", workers, fallbacks, want)
			}
			release(workers)
		}
	})
}
