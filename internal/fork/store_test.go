package fork

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/hw"
)

// checkIndex asserts that the fingerprint index holds exactly the live
// entries: every chained entry is the one its key maps to and sits in
// its own fingerprint's chain, and every live entry is chained once.
func checkIndex(t testing.TB, s *Store) {
	t.Helper()
	chained := 0
	for fp, head := range s.byFP {
		if head == nil {
			t.Fatalf("fingerprint %#x has an empty chain", fp)
		}
		for e := head; e != nil; e = e.next {
			if e.fp != fp {
				t.Fatalf("frame %s chained under %#x, fingerprinted %#x", e.key, fp, e.fp)
			}
			if s.frames[e.key] != e {
				t.Fatalf("stale index entry for frame %s", e.key)
			}
			chained++
		}
	}
	if chained != len(s.frames) {
		t.Fatalf("index chains %d entries, store holds %d frames", chained, len(s.frames))
	}
}

// onePage returns a page holding v at byte off.
func onePage(off int, v byte) []byte {
	p := make([]byte, hw.PageSize)
	p[off] = v
	return p
}

func TestStoreFingerprintChainUnlink(t *testing.T) {
	s := NewStore()
	// Four distinct pages, one byte apart, forced onto one chain. Each
	// insert links at the head, so the chain runs pages[3] → … → pages[0].
	const fp = 0x5eed
	pages := make([][]byte, 4)
	keys := make([]Hash, len(pages))
	for i := range pages {
		pages[i] = onePage(7, byte(i+1))
		keys[i] = HashFrame(pages[i])
		s.insert(keys[i], fp, pages[i])
	}
	checkIndex(t, s)
	live := map[int]bool{0: true, 1: true, 2: true, 3: true}
	// Middle (pages[2]), then tail (pages[0]), then head (pages[3]).
	for _, i := range []int{2, 0, 3} {
		if err := s.Release(keys[i]); err != nil {
			t.Fatal(err)
		}
		delete(live, i)
		checkIndex(t, s)
		for j, p := range pages {
			if got := s.lookup(fp, p) != nil; got != live[j] {
				t.Fatalf("after releasing page %d: page %d found=%v, want %v", i, j, got, live[j])
			}
		}
	}
	if err := s.Release(keys[1]); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s)
	if len(s.byFP) != 0 || s.Frames() != 0 {
		t.Fatalf("drained store keeps %d chains, %d frames", len(s.byFP), s.Frames())
	}
}

func TestStoreCorruptedFrameReleasedThenPutAgain(t *testing.T) {
	s := NewStore()
	page := onePage(0, 0x11)
	page[100] = 0x22
	h, err := s.Put(page)
	if err != nil {
		t.Fatal(err)
	}
	undo, err := s.CorruptFramePick(func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if s.Verify() == nil {
		t.Fatal("Verify missed the corrupted frame")
	}
	// While the corrupted frame is live, its key still names the
	// original content: a Put of it is a dedup hit, as it always was.
	if h2, _ := s.Put(page); h2 != h {
		t.Fatalf("Put over a corrupted frame keyed %s, want %s", h2, h)
	}
	if puts, hits := s.Puts(); puts != 2 || hits != 1 {
		t.Fatalf("Puts() = %d/%d, want 2/1", puts, hits)
	}
	for i := 0; i < 2; i++ {
		if err := s.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	checkIndex(t, s)
	if len(s.byFP) != 0 || s.Frames() != 0 {
		t.Fatalf("released frame left %d chains, %d frames", len(s.byFP), s.Frames())
	}

	// Put again: a fresh, correct frame, not the corrupted one.
	h3, err := s.Put(page)
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h {
		t.Fatalf("re-Put keyed %s, want %s", h3, h)
	}
	if puts, hits := s.Puts(); puts != 3 || hits != 1 {
		t.Fatalf("Puts() = %d/%d, want 3/1", puts, hits)
	}
	checkIndex(t, s)
	// The corruption's undo belongs to the released entry and must not
	// touch the fresh one.
	undo()
	got, err := s.Get(h3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("re-Put frame does not hold the original content")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 1 || s.Refs() != 1 {
		t.Fatalf("frames=%d refs=%d, want 1/1", s.Frames(), s.Refs())
	}
}

// FuzzStore decodes its input into Put, Retain, Release and Get calls
// over the zero page and four pages one byte apart, and checks the
// store against a map model after every call.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 1, 2, 1, 2, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 3, 2, 2, 2, 2, 3, 3, 0, 4})
	f.Add([]byte{1, 1, 0, 1, 0, 2, 2, 2, 0, 2, 3, 2, 2, 1})

	pages := [][]byte{make([]byte, hw.PageSize)}
	for i := 0; i < 4; i++ {
		p := onePage(hw.PageSize-1, 0x5A)
		p[1000] = byte(i)
		pages = append(pages, p)
	}
	keys := make([]Hash, len(pages))
	for i, p := range pages {
		keys[i] = sha256.Sum256(p)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewStore()
		refs := map[Hash]int64{}
		var puts, hits uint64
		for i := 0; i+1 < len(ops); i += 2 {
			p := int(ops[i+1]) % len(pages)
			data, h := pages[p], keys[p]
			switch ops[i] % 4 {
			case 0:
				got, err := s.Put(data)
				if err != nil {
					t.Fatal(err)
				}
				if got != h {
					t.Fatalf("Put of page %d keyed %s, want %s", p, got, h)
				}
				puts++
				if refs[h] > 0 {
					hits++
				}
				refs[h]++
			case 1:
				err := s.Retain(h)
				if (err == nil) != (refs[h] > 0) {
					t.Fatalf("Retain of page %d with %d refs: err=%v", p, refs[h], err)
				}
				if err == nil {
					refs[h]++
				}
			case 2:
				err := s.Release(h)
				if (err == nil) != (refs[h] > 0) {
					t.Fatalf("Release of page %d with %d refs: err=%v", p, refs[h], err)
				}
				if err == nil {
					if refs[h]--; refs[h] == 0 {
						delete(refs, h)
					}
				}
			case 3:
				got, err := s.Get(h)
				if (err == nil) != (refs[h] > 0) {
					t.Fatalf("Get of page %d with %d refs: err=%v", p, refs[h], err)
				}
				if err == nil && !bytes.Equal(got, data) {
					t.Fatalf("Get of page %d returned other bytes", p)
				}
			}
			var total int64
			for _, n := range refs {
				total += n
			}
			if got := s.Refs(); got != total {
				t.Fatalf("op %d: Refs() = %d, model %d", i/2, got, total)
			}
			if got := s.Frames(); got != len(refs) {
				t.Fatalf("op %d: Frames() = %d, model %d", i/2, got, len(refs))
			}
			if gp, gh := s.Puts(); gp != puts || gh != hits {
				t.Fatalf("op %d: Puts() = %d/%d, model %d/%d", i/2, gp, gh, puts, hits)
			}
			checkIndex(t, s)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
