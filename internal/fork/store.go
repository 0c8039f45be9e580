package fork

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/hw"
)

// Hash identifies a frame (or image) by its content.
type Hash [sha256.Size]byte

// String renders the short hex form used in reports.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// HashFrame hashes one page of content.
func HashFrame(data []byte) Hash { return sha256.Sum256(data) }

// zeroPage is the all-zero page — the implicit content of every
// untouched frame. Read-only.
var zeroPage = make([]byte, hw.PageSize)

// zeroHash is the hash of zeroPage.
var zeroHash = HashFrame(zeroPage)

// frameEntry is one deduplicated frame in the store.
type frameEntry struct {
	key  Hash
	data []byte
	refs int64

	// fp is the maphash fingerprint of data, taken once at insert and
	// never recomputed: CorruptFramePick alters data in place, and the
	// entry must still unlink from the chain it was linked into.
	fp   uint64
	next *frameEntry // next entry in fp's chain
}

// Store is the content-addressed snapshot cache: frame content keyed by
// hash, deduplicated across every image and clone that references it,
// refcounted so content lives exactly as long as something points at
// it. The E2B pattern from SNIPPETS.md snippet 1 — a shared read-only
// base plus sparse per-clone overlays — hangs off this store: a
// BaseImage holds one reference per frame, an overlay one per diverged
// frame, and a frame's bytes are freed when the last reference is
// released. Clones hold no references: they and the overlays hold
// their base, which keeps its references while anything holds it.
// Safe for concurrent use.
//
// Put finds existing content without hashing it: a 64-bit maphash
// fingerprint indexes every entry, entries that share a fingerprint are
// chained, and a byte compare confirms each match. Only content the
// store lacks is hashed with sha256 to make its key.
type Store struct {
	mu     sync.Mutex
	frames map[Hash]*frameEntry
	byFP   map[uint64]*frameEntry // fingerprint → head of its chain
	seed   maphash.Seed

	puts      uint64 // logical frames offered to Put
	dedupHits uint64 // Puts that matched existing content
}

// NewStore returns an empty snapshot cache.
func NewStore() *Store {
	return &Store{
		frames: make(map[Hash]*frameEntry),
		byFP:   make(map[uint64]*frameEntry),
		seed:   maphash.MakeSeed(),
	}
}

// Put stores one page of content (copied) and returns its hash. If the
// content is already present the existing frame is reused — the caller
// still gains one reference either way. Only content the store lacks
// is hashed.
func (s *Store) Put(data []byte) (Hash, error) {
	e, err := s.put(data, false)
	if err != nil {
		return Hash{}, err
	}
	return e.key, nil
}

// put is Put returning the entry the reference was taken on; with own
// set, content the store lacks is stored as data itself rather than a
// copy, and the caller must never write data again.
func (s *Store) put(data []byte, own bool) (*frameEntry, error) {
	if len(data) != hw.PageSize {
		return nil, fmt.Errorf("fork: Put of %d bytes, want one page", len(data))
	}
	fp := maphash.Bytes(s.seed, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	e := s.lookup(fp, data)
	if e == nil {
		h := HashFrame(data)
		// A byte compare misses content whose stored bytes were altered
		// in place (CorruptFramePick); its key still names it.
		if e = s.frames[h]; e == nil {
			if !own {
				data = bytes.Clone(data)
			}
			return s.insert(h, fp, data), nil
		}
	}
	s.dedupHits++
	e.refs++
	return e, nil
}

// lookup returns the entry in fp's chain whose bytes equal data, or nil.
func (s *Store) lookup(fp uint64, data []byte) *frameEntry {
	for e := s.byFP[fp]; e != nil; e = e.next {
		if bytes.Equal(e.data, data) {
			return e
		}
	}
	return nil
}

// insert stores data, which the store now owns, under key h with one
// reference, links it at the head of fp's chain and returns it.
func (s *Store) insert(h Hash, fp uint64, data []byte) *frameEntry {
	e := &frameEntry{key: h, data: data, refs: 1, fp: fp, next: s.byFP[fp]}
	s.frames[h] = e
	s.byFP[fp] = e
	return e
}

// unlink removes e from the store, its key and its fingerprint chain.
func (s *Store) unlink(e *frameEntry) {
	delete(s.frames, e.key)
	if s.byFP[e.fp] == e {
		if e.next == nil {
			delete(s.byFP, e.fp)
		} else {
			s.byFP[e.fp] = e.next
		}
		return
	}
	for p := s.byFP[e.fp]; p != nil; p = p.next {
		if p.next == e {
			p.next = e.next
			return
		}
	}
}

// Retain takes one more reference on an existing frame.
func (s *Store) Retain(h Hash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[h]
	if !ok {
		return fmt.Errorf("fork: Retain of absent frame %s", h)
	}
	e.refs++
	return nil
}

// Release drops one reference; the frame's bytes are freed when the
// count reaches zero.
func (s *Store) Release(h Hash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseLocked(h)
}

// releaseLocked is Release with s.mu held.
func (s *Store) releaseLocked(h Hash) error {
	e, ok := s.frames[h]
	if !ok {
		return fmt.Errorf("fork: Release of absent frame %s", h)
	}
	e.refs--
	if e.refs < 0 {
		return fmt.Errorf("fork: refcount of frame %s went negative", e.key)
	}
	if e.refs == 0 {
		s.unlink(e)
	}
	return nil
}

// release drops one reference on every frame refs names, under one lock
// and with one lookup each. It releases every one it can and returns
// the first error.
func (s *Store) release(refs []FrameRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, r := range refs {
		if err := s.releaseLocked(r.H); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get returns the shared read-only bytes of a frame. The slice is
// aliased by every CoW mapping of the frame — callers must never write
// through it.
func (s *Store) Get(h Hash) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.frames[h]
	if !ok {
		return nil, fmt.Errorf("fork: Get of absent frame %s", h)
	}
	return e.data, nil
}

// Frames returns the number of unique frames stored.
func (s *Store) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// BytesStored returns the deduplicated storage footprint.
func (s *Store) BytesStored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames) * hw.PageSize
}

// Refs returns the total outstanding references across all frames — the
// quantity the chaos refcount-leak detector audits.
func (s *Store) Refs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.frames {
		n += e.refs
	}
	return n
}

// Puts returns (logical puts, dedup hits) — the raw dedup accounting.
func (s *Store) Puts() (puts, dedupHits uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.dedupHits
}

// DedupRatio is logical frames offered per unique frame stored (1.0
// means no sharing; N clones of one image approach N).
func (s *Store) DedupRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) == 0 {
		return 1
	}
	return float64(s.puts) / float64(len(s.frames))
}

// Verify re-hashes every stored frame against its key — the store-
// corruption detector. A mismatch means the shared bytes every mapped
// clone reads were silently altered.
func (s *Store) Verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, e := range s.frames {
		if HashFrame(e.data) != h {
			return fmt.Errorf("fork: store corruption: frame keyed %s no longer hashes to its key", h)
		}
	}
	return nil
}

// sortedHashes returns the stored hashes in deterministic order (for
// seeded fault injection).
func (s *Store) sortedHashes() []Hash {
	hs := make([]Hash, 0, len(s.frames))
	for h := range s.frames {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool {
		for k := range hs[i] {
			if hs[i][k] != hs[j][k] {
				return hs[i][k] < hs[j][k]
			}
		}
		return false
	})
	return hs
}

// CorruptFramePick flips a byte inside a stored frame chosen by pick
// (a seeded rand.Intn) and returns an undo. Chaos-injection surface:
// Verify must report the corruption.
func (s *Store) CorruptFramePick(pick func(n int) int) (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("fork: no stored frames to corrupt")
	}
	hs := s.sortedHashes()
	h := hs[pick(len(hs))]
	e := s.frames[h]
	off := pick(hw.PageSize)
	e.data[off] ^= 0x40
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e2, ok := s.frames[h]; ok && e2 == e {
			e2.data[off] ^= 0x40
		}
	}, nil
}

// LeakRefPick takes an extra, unowned reference on a frame chosen by
// pick and returns an undo that releases it. Chaos-injection surface:
// the refcount audit must report the imbalance.
func (s *Store) LeakRefPick(pick func(n int) int) (func(), error) {
	s.mu.Lock()
	if len(s.frames) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("fork: no stored frames to leak a ref on")
	}
	hs := s.sortedHashes()
	h := hs[pick(len(hs))]
	s.frames[h].refs++
	s.mu.Unlock()
	return func() {
		// Best-effort: the frame may already have been released to zero
		// by its owners, in which case the leaked ref kept it alive.
		_ = s.Release(h)
	}, nil
}

// RefHolder is anything that owns store references and can report how
// many it currently holds (BaseImage, CloneState, Overlay). A clone
// owns none: it holds its base instead.
type RefHolder interface {
	LiveRefs() int
}

// AuditRefs compares the store's outstanding references against the sum
// owned by the given holders, and then each given base's holds against
// the live clones and overlays given that hold it. A mismatch is a
// refcount leak (or a double release) — the invariant every
// fork/rollback/destroy path must preserve.
func AuditRefs(s *Store, holders ...RefHolder) error {
	var want int64
	held := make(map[*BaseImage]int)
	for _, h := range holders {
		want += int64(h.LiveRefs())
		switch h := h.(type) {
		case *CloneState:
			if h.live() {
				held[h.Base.Img]++
			}
		case *Overlay:
			if !h.released {
				held[h.Base]++
			}
		}
	}
	got := s.Refs()
	if got != want {
		return fmt.Errorf("fork: refcount leak: store holds %d refs, live owners account for %d", got, want)
	}
	for _, h := range holders {
		if b, ok := h.(*BaseImage); ok {
			if n := b.holders(); n != held[b] {
				return fmt.Errorf("fork: hold leak: base %q has %d holds, live clones and overlays account for %d",
					b.Name, n, held[b])
			}
		}
	}
	return nil
}
