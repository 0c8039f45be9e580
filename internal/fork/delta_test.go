package fork

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"repro/internal/hw"
)

// TestCheckpointDeltaDivergenceCases pins what CheckpointDelta stores
// for each way a clone's frame can diverge from, or return to, its
// base. env's origin has a pattern word in frames 0–63, a page-table
// root and leaf table at 100 and 101, and zero everywhere else; every
// clone lands displaced, so the two table frames are always relocated
// (promoted and rewritten) and always diverge. The store accounting
// and simulated cycles are pinned: how "unchanged" is decided must not
// move them.
func TestCheckpointDeltaDivergenceCases(t *testing.T) {
	cases := []struct {
		name  string
		dirty func(mem *hw.PhysMem, lo hw.PFN)
		// releaseBase releases the base before the delta; the live
		// clone's hold keeps every base frame in the store.
		releaseBase bool
		// want lists the Dirty offsets; erased the subset stored as the
		// zero-page erasure marker.
		want, erased []uint32
		puts, hits   uint64 // Store.Puts() growth during the delta
		frames       int    // Store.Frames() after the delta
		cyc          hw.Cycles
	}{
		{
			name:  "relocated tables only",
			dirty: func(*hw.PhysMem, hw.PFN) {},
			want:  []uint32{100, 101},
			puts:  2, hits: 0, frames: 68, cyc: 47500,
		},
		{
			name: "written back to base content",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 20).Addr(), 0xAB00_0000|20)
			},
			want: []uint32{100, 101},
			puts: 2, hits: 0, frames: 68, cyc: 47725,
		},
		{
			name: "slack frame scrubbed to zero",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 150).Addr(), 0x5C2B)
				mem.WriteWord((lo + 150).Addr(), 0)
			},
			want: []uint32{100, 101},
			puts: 2, hits: 0, frames: 68, cyc: 47500,
		},
		{
			name: "base frames zeroed",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 30).Addr(), 0)
				mem.WriteWord((lo + 31).Addr(), 0)
			},
			want:   []uint32{30, 31, 100, 101},
			erased: []uint32{30, 31},
			puts:   4, hits: 1, frames: 69, cyc: 49750,
		},
		{
			name: "new content",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 10).Addr(), 0xC10E_0000)
				mem.WriteWord((lo + 200).Addr(), 0xC10E_0001)
			},
			want: []uint32{10, 100, 101, 200},
			puts: 4, hits: 0, frames: 70, cyc: 49525,
		},
		{
			name: "content of another base frame",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 10).Addr(), 0xAB00_0000|11)
				mem.WriteWord((lo + 180).Addr(), 0xAB00_0000|12)
			},
			want: []uint32{10, 100, 101, 180},
			puts: 4, hits: 2, frames: 68, cyc: 49525,
		},
		{
			name: "written back after the base was released",
			dirty: func(mem *hw.PhysMem, lo hw.PFN) {
				mem.WriteWord((lo + 20).Addr(), 0xAB00_0000|20)
				mem.WriteWord((lo + 21).Addr(), 0xC10E_0002)
			},
			releaseBase: true,
			want:        []uint32{21, 100, 101},
			puts:        3, hits: 0, frames: 69, cyc: 48850,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, dom0, origin, c := env(t)
			cb := warmBase(t, v, dom0, origin, c)
			cs, err := Clone(c, v, dom0, cb, "delta-case")
			if err != nil {
				t.Fatal(err)
			}
			tc.dirty(v.M.Mem, cs.Lo)
			if tc.releaseBase {
				if err := cb.Img.Release(); err != nil {
					t.Fatal(err)
				}
			}
			puts0, hits0 := cb.Store.Puts()
			start := c.Now()
			o, err := CheckpointDelta(c, v, dom0, cs)
			if err != nil {
				t.Fatal(err)
			}
			cyc := c.Now() - start
			puts1, hits1 := cb.Store.Puts()

			var offs []uint32
			erased := map[uint32]bool{}
			for _, r := range tc.erased {
				erased[r] = true
			}
			for _, r := range o.Dirty {
				offs = append(offs, r.Off)
				want := Hash(sha256.Sum256(v.M.Mem.FrameBytesRO(cs.Lo + hw.PFN(r.Off))))
				if erased[r.Off] {
					want = zeroHash
				}
				if r.H != want {
					t.Errorf("Dirty frame %d keyed %s, want %s", r.Off, r.H, want)
				}
			}
			if !reflect.DeepEqual(offs, tc.want) {
				t.Errorf("Dirty offsets = %v, want %v", offs, tc.want)
			}
			if got := [2]uint64{puts1 - puts0, hits1 - hits0}; got != [2]uint64{tc.puts, tc.hits} {
				t.Errorf("delta puts/dedup hits = %v, want [%d %d]", got, tc.puts, tc.hits)
			}
			if got := cb.Store.Frames(); got != tc.frames {
				t.Errorf("store holds %d frames, want %d", got, tc.frames)
			}
			if cyc != tc.cyc {
				t.Errorf("CheckpointDelta took %d simulated cycles, want %d", cyc, tc.cyc)
			}
			if err := AuditRefs(cb.Store, cb.Img, cs, o); err != nil {
				t.Error(err)
			}
			if err := cb.Store.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckpointDeltaSizedByPrivateFrames: a delta's Dirty is sized by
// the frames of the clone's range that hold a private page, not by every
// frame no longer shared. env's 66-frame base sits in a 256-frame
// partition, so 190 slack frames are never written; a clone with one
// dirtied frame and its two relocated tables promotes three frames, and
// its delta must not reserve room for the slack.
func TestCheckpointDeltaSizedByPrivateFrames(t *testing.T) {
	v, dom0, origin, c := env(t)
	cb := warmBase(t, v, dom0, origin, c)
	cs, err := Clone(c, v, dom0, cb, "clone")
	if err != nil {
		t.Fatal(err)
	}
	v.M.Mem.WriteWord((cs.Lo + 10).Addr(), 0xC10E_0000)
	o, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cb.Img.Refs); n != 66 || cb.Img.Span() != 256 {
		t.Fatalf("base of %d frames in a span of %d, want 66 in 256", n, cb.Img.Span())
	}
	if len(o.Dirty) != 3 || cs.PromotedCount() != 3 {
		t.Fatalf("delta of %d frames, %d promoted, want 3 and 3", len(o.Dirty), cs.PromotedCount())
	}
	if got := v.M.Mem.PrivateFrames(o.Lo, o.Hi); cap(o.Dirty) > got || got != cs.PromotedCount() {
		t.Fatalf("Dirty has room for %d entries; %d frames hold a private page, %d promoted",
			cap(o.Dirty), got, cs.PromotedCount())
	}
}
