package fork

import (
	"encoding/binary"
	"testing"

	"repro/internal/hw"
)

// BenchmarkStorePut times one Put of content the store already holds
// (hit: a fingerprint and a byte compare) and of content it lacks (miss:
// a fingerprint, a sha256 and an insert, followed by the Release that
// keeps the store at one frame).
func BenchmarkStorePut(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := NewStore()
		page := onePage(123, 0x7E)
		if _, err := s.Put(page); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(hw.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Put(page); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := NewStore()
		page := onePage(123, 0x7E)
		b.SetBytes(hw.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(page, uint64(i))
			h, err := s.Put(page)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Release(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointDelta times one delta checkpoint of a 256-frame
// clone with 32 dirtied frames (24 base frames rewritten, 8 slack frames
// written) and its two relocated table frames. A first overlay stays
// live, so every diverged frame is a dedup hit in the store, as most
// are when clones dirty repeating content; each timed overlay is
// released again.
func BenchmarkCheckpointDelta(b *testing.B) {
	v, dom0, origin, c := env(b)
	cb := warmBase(b, v, dom0, origin, c)
	cs, err := Clone(c, v, dom0, cb, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		v.M.Mem.WriteWord((cs.Lo + hw.PFN(i)).Addr(), 0xD000_0000|uint32(i))
	}
	for i := 0; i < 8; i++ {
		v.M.Mem.WriteWord((cs.Lo + hw.PFN(200+i)).Addr(), 0xD100_0000|uint32(i))
	}
	keep, err := CheckpointDelta(c, v, dom0, cs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := CheckpointDelta(c, v, dom0, cs)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := AuditRefs(cb.Store, cb.Img, cs, keep); err != nil {
		b.Fatal(err)
	}
}
