package xen

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/hw"
)

// blkFuzzGrant is one (front, ref) pair a fuzzed request may name that
// the backend can map, and the frame behind it.
type blkFuzzGrant struct {
	front DomID
	ref   GrantRef
}

// blkFuzzReply is one response as the fuzz compares them: requests may
// share an ID, so responses are counted by ID and outcome.
type blkFuzzReply struct {
	id  uint64
	err bool
}

// FuzzBlkMQServe drives one backend queue with hostile bursts: requests
// of any ID (repeats included), any block (adjacent ones merge into
// runs; some lie near 2^40 and 2^64), either direction, any of four
// fronts (two guests, dom0 with no grants, an ID nobody has) and any
// ref: live grants to the driver domain, read-only or not, a grant to
// another domain, one of a frame the granter does not own, an ended
// one, ref -1 and a ref past the table. Between bursts the guests may
// rewrite their granted frames. Write-behind is on or off for the whole
// input.
//
// Each burst is checked against a model that sorts it as the backend
// does and serves it run by run: exactly one response per request,
// carrying its ID, an error exactly when some grant of its run cannot
// be mapped (a read run maps writable, so a read-only grant fails it),
// disk and write-behind cache contents equal to the model's
// maps, every granted frame's bytes equal to the model's (so a read of
// a never-written block returns zeros), no grant left mapped, the frame
// table's invariants, and a staging buffer never longer than one full
// ring of blocks.
//
// Input: byte 0 bit 0 turns write-behind on. Then ops: a byte b with
// b%4 < 3 is a burst of 1+next%Capacity requests of four bytes each
// (ID, block, mode: bit 0 write and the rest the front, ref); b%4 == 3
// rewrites granted frame next%frames with the fill byte after it.
func FuzzBlkMQServe(f *testing.F) {
	// TestBlkMQWriteBehindKeepsOwnCopies: two non-adjacent write runs in
	// one burst, then both blocks read back.
	f.Add([]byte{1, 0, 1, 1, 10, 1, 0, 2, 13, 1, 1, 0, 0, 3, 10, 0, 1, 0, 0, 4, 13, 0, 3})
	// TestBlkMQReadOfUnwrittenBlockIsZero: a write run, then a read of a
	// block never written, write-behind off.
	f.Add([]byte{0, 0, 0, 1, 3, 1, 0, 0, 0, 2, 9, 0, 1})
	// TestBlkMQServeAllocatesNoRunBuffer: single-block runs, reads and
	// writes alternating, blocks two apart.
	f.Add([]byte{0, 0, 7, 0, 0, 1, 0, 1, 2, 0, 1, 2, 4, 1, 3, 3, 6, 0, 1,
		4, 8, 1, 0, 5, 10, 0, 1, 6, 12, 1, 3, 7, 14, 0, 1})
	// One merged eight-block write run, a guest rewrite of a frame, and
	// the run read back: the staging buffer grows to a full ring.
	f.Add([]byte{1, 0, 7, 0, 0, 1, 0, 1, 1, 1, 1, 2, 2, 1, 3, 3, 3, 1, 0, 4, 4, 1, 1,
		5, 5, 1, 3, 6, 6, 1, 0, 7, 7, 1, 1, 3, 0, 0x77,
		0, 7, 8, 0, 0, 1, 9, 1, 0, 1, 10, 2, 0, 3, 11, 3, 0, 0, 12, 4, 0, 1,
		13, 5, 0, 3, 14, 6, 0, 0, 15, 7, 0, 1})
	// TestBlkMQBadGrantFailsRun and hostile_test.go: a run with one bad
	// ref fails whole beside a good run; a grant to another domain, a
	// frame the granter does not own, an ended grant, refs -1 and 2^20,
	// and fronts dom0 and one that does not exist.
	f.Add([]byte{0, 0, 7, 1, 0, 1, 0, 2, 1, 1, 7, 3, 5, 1, 1, 4, 6, 0, 4,
		5, 8, 4, 5, 6, 9, 0, 6, 7, 11, 5, 0, 8, 13, 7, 0})
	// g1's read-only ref 2: a write from it serves, a read run that
	// maps it fails whole.
	f.Add([]byte{0, 0, 0, 20, 5, 1, 2, 0, 1, 21, 5, 0, 2, 22, 6, 0, 0})
	// Blocks near 2^40 and 2^64 from a second guest, merged and not.
	f.Add([]byte{1, 0, 3, 1, 224, 3, 0, 2, 225, 3, 0, 3, 226, 3, 0, 4, 227, 2, 0,
		0, 1, 5, 224, 2, 0, 6, 227, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := BootHost(hw.Config{MemBytes: 20 << 20, NumCPUs: 1}, 16)
		if err != nil {
			t.Fatal(err)
		}
		v, c, d0 := h.V, h.C, h.Dom0
		var guests []*Domain
		for _, name := range []string{"guest1", "guest2"} {
			d, err := v.CreateDomain(name, 16, false)
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, d)
		}
		g1, g2 := guests[0], guests[1]
		v.SetCurrent(c, g1)
		mem := v.M.Mem

		// Live grants to the driver domain: g1's refs 0-3 (ref 2
		// read-only, so mappable for writes only) and g2's ref 0.
		mappable := make(map[blkFuzzGrant]hw.PFN)
		readonly := make(map[blkFuzzGrant]bool)
		var frames []hw.PFN
		grant := func(d *Domain, ro bool) {
			pfn := d.Frames.Alloc()
			fb := mem.FrameBytes(pfn)
			for j := range fb {
				fb[j] = byte(len(frames)*37 + j*7)
			}
			k := blkFuzzGrant{d.ID, d.GrantAccess(c, d0.ID, pfn, ro)}
			mappable[k], readonly[k] = pfn, ro
			frames = append(frames, pfn)
		}
		for i := 0; i < 4; i++ {
			grant(g1, i == 2)
		}
		// g1's ref 4 goes to g2, ref 5 names a VMM frame, ref 6 is ended.
		g1.GrantAccess(c, g2.ID, frames[0], false)
		vmmLo, _ := v.Reserved.Range()
		g1.GrantAccess(c, d0.ID, vmmLo, false)
		if err := g1.GrantEnd(c, g1.GrantAccess(c, d0.ID, frames[1], false)); err != nil {
			t.Fatal(err)
		}
		grant(g2, false)
		// g2's ref 1 names g1's frame.
		g2.GrantAccess(c, d0.ID, frames[0], false)
		fronts := []DomID{g1.ID, g2.ID, d0.ID, 7}
		high := []uint64{1 << 40, 1<<40 + 1, math.MaxUint64 - 1, math.MaxUint64}

		in := fuzzInput(data)
		disk := &memDisk{blocks: map[uint64][]byte{}}
		be := NewBlkMQBackend(v, d0, disk, 1, 8, 1)
		be.WriteBehind = in.next()&1 == 1
		q := be.Queues[0]
		capacity := q.Ring.Capacity()

		// The model: disk and cache blocks, and every granted frame.
		mDisk := make(map[uint64][]byte)
		mCache := make(map[uint64][]byte)
		mFrames := make(map[hw.PFN][]byte)
		for _, pfn := range frames {
			mFrames[pfn] = slices.Clone(mem.FrameBytesRO(pfn))
		}
		zero := make([]byte, hw.BlockSize)
		stored := func(blk uint64) []byte {
			if b, ok := mCache[blk]; ok {
				return b
			}
			if b, ok := mDisk[blk]; ok {
				return b
			}
			return zero
		}
		// serve applies one run to the model and returns whether its
		// grant batch maps.
		serve := func(run []BlkRequest) bool {
			for _, r := range run {
				k := blkFuzzGrant{r.Front, r.Grant}
				if _, ok := mappable[k]; !ok || !r.Write && readonly[k] {
					return false
				}
			}
			for _, r := range run {
				pfn := mappable[blkFuzzGrant{r.Front, r.Grant}]
				switch {
				case !r.Write:
					mFrames[pfn] = slices.Clone(stored(r.Block))
				case be.WriteBehind:
					mCache[r.Block] = slices.Clone(mFrames[pfn])
				default:
					mDisk[r.Block] = slices.Clone(mFrames[pfn])
				}
			}
			return true
		}
		sameBlocks := func(what string, got, want map[uint64][]byte, step int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("step %d: %s holds %d blocks, model %d", step, what, len(got), len(want))
			}
			for blk, w := range want {
				if !bytes.Equal(got[blk], w) {
					t.Fatalf("step %d: %s block %d differs from the model", step, what, blk)
				}
			}
		}

		reqs := make([]BlkRequest, capacity)
		resp := make([]BlkResponse, capacity)
		for step := 0; step < 32 && len(in) > 0; step++ {
			if in.next()%4 == 3 {
				pfn, fill := frames[int(in.next())%len(frames)], in.next()
				fb := mem.FrameBytes(pfn)
				for j := range fb {
					fb[j] = fill
				}
				mFrames[pfn] = slices.Clone(fb)
				continue
			}
			burst := reqs[:1+int(in.next())%capacity]
			for i := range burst {
				id, b, mode, ref := in.next(), in.next(), in.next(), in.next()
				blk := uint64(b % 16)
				if b >= 224 {
					blk = high[b%4]
				}
				r := GrantRef(ref % 9)
				switch r {
				case 7:
					r = -1
				case 8:
					r = 1 << 20
				}
				burst[i] = BlkRequest{ID: uint64(id) * 0x0101010101010101, Block: blk,
					Write: mode&1 == 1, Grant: r, Front: fronts[int(mode>>1)%len(fronts)]}
			}
			// The model serves the burst in the backend's order.
			sorted := slices.Clone(burst)
			slices.SortFunc(sorted, func(a, b BlkRequest) int { return cmp.Compare(a.Block, b.Block) })
			want := make(map[blkFuzzReply]int)
			for start := 0; start < len(sorted); {
				end := start + 1
				for end < len(sorted) && sorted[end].Write == sorted[start].Write &&
					sorted[end].Front == sorted[start].Front && sorted[end].Block == sorted[end-1].Block+1 {
					end++
				}
				ok := serve(sorted[start:end])
				for _, r := range sorted[start:end] {
					want[blkFuzzReply{r.ID, !ok}]++
				}
				start = end
			}

			if n, _ := q.Ring.PushRequests(c, burst); n != len(burst) {
				t.Fatalf("step %d: pushed %d of %d", step, n, len(burst))
			}
			be.PollQueue(c, q)
			n := q.Ring.TakeResponses(c, resp)
			if n != len(burst) {
				t.Fatalf("step %d: %d responses to %d requests", step, n, len(burst))
			}
			for _, r := range resp[:n] {
				k := blkFuzzReply{r.ID, r.Err != ""}
				if want[k] == 0 {
					t.Fatalf("step %d: unexpected response %+v (model %v)", step, r, want)
				}
				want[k]--
			}

			sameBlocks("disk", disk.blocks, mDisk, step)
			sameBlocks("cache", be.wbCache, mCache, step)
			for pfn, w := range mFrames {
				if !bytes.Equal(mem.FrameBytesRO(pfn), w) {
					t.Fatalf("step %d: frame %d differs from the model", step, pfn)
				}
			}
			if len(q.stage) > capacity*hw.BlockSize {
				t.Fatalf("step %d: staging buffer %d bytes, above a full ring's %d",
					step, len(q.stage), capacity*hw.BlockSize)
			}
			for _, d := range guests {
				for ref, g := range d.grants {
					if g.mapped != 0 {
						t.Fatalf("step %d: dom%d grant %d left mapped %d times", step, d.ID, ref, g.mapped)
					}
				}
			}
			if err := v.FT.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
