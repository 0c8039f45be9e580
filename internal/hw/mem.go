package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Address-space geometry, mirroring the 32-bit x86 layout the paper's
// prototype uses (§3.2.2): a single 4 GB virtual address space with the
// kernel in the top 1 GB and the VMM reserved in the top 64 MB. Mercury
// keeps the VMM hole reserved even in native mode so the layout never has
// to change across a mode switch.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1

	// KernelBase is where the guest kernel's address space begins.
	KernelBase VirtAddr = 0xC000_0000
	// VMMBase is the start of the 64 MB region reserved for the
	// pre-cached VMM, at the very top of every address space.
	VMMBase VirtAddr = 0xFC00_0000
	// VMMSize is the size of the reserved VMM region.
	VMMSize = 64 << 20
)

// PhysAddr is a physical byte address.
type PhysAddr uint32

// VirtAddr is a virtual byte address.
type VirtAddr uint32

// PFN is a physical page frame number.
type PFN uint32

// NoPFN marks an invalid/absent frame.
const NoPFN = PFN(0xFFFF_FFFF)

// Addr returns the physical address of the first byte of the frame.
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// PFNOf returns the frame containing the physical address.
func PFNOf(a PhysAddr) PFN { return PFN(a >> PageShift) }

// VPN is a virtual page number.
type VPN uint32

// VPNOf returns the virtual page containing the virtual address.
func VPNOf(a VirtAddr) VPN { return VPN(a >> PageShift) }

// Addr returns the virtual address of the first byte of the page.
func (v VPN) Addr() VirtAddr { return VirtAddr(v) << PageShift }

// PhysMem is the machine's physical memory, divided into 4 KB frames.
// Each frame is one lock-free slot, so simulated CPUs read and write
// frames concurrently without a shared lock. A frame's bytes are
// allocated on its first write; a frame never written reads as zero
// and a read never allocates.
//
// Pages are allocated in two places only, a first write (frameRW) and
// a promotion (unshare), and both reuse a page from the free list
// before they allocate one. Scrub fills that list with the private
// pages of a range nothing reaches any more, so a machine that
// destroys clones and makes new ones reuses the dead clones' pages.
type PhysMem struct {
	frames []frameSlot

	// shared counts the live copy-on-write mappings.
	shared atomic.Int64
	// dirtyOn turns on log-dirty mode, which live migration's pre-copy
	// rounds rely on: every write sets its frame's dirty bit until
	// CollectDirty takes it.
	dirtyOn atomic.Bool

	// free holds the pages Scrub took back, for first writes and
	// promotions to reuse; nfree is its length, read without freeMu so
	// that a machine with nothing on the list never takes the lock.
	freeMu sync.Mutex
	free   []*[PageSize]byte
	nfree  atomic.Int64
}

// frameSlot is one frame. Its publish order means a concurrent read
// never observes a half-made frame:
//
//   - a read loads cow, then data: a CoW frame reads its page of the
//     mapping on it, any other frame its private bytes, or zeroPage if
//     it has none;
//   - the first write takes a page from the free list and clears it,
//     or allocates a fresh one, and publishes it by CAS on data; a
//     racing first write uses the winner's page;
//   - promotion fills a private copy of the shared page, recycled or
//     fresh, CASes data from nil to it (a racing promoter uses the
//     winner's copy), and only then CASes cow to nil, so a read sees
//     either the shared bytes or the filled copy. Only the side that
//     wins the cow CAS decrements PhysMem.shared and runs onPromote.
//
// A fresh page is sliced from the allocation itself, never from a
// pointer loaded back out of data or from a variable that may also hold
// a recycled page: slicing a pointer the compiler cannot prove non-nil
// nil-checks it with a read of the page, and on a fresh page that read
// costs the host a second page fault per frame. A recycled page was
// written before, so its nil check costs nothing.
type frameSlot struct {
	data  atomic.Pointer[[PageSize]byte] // private bytes; nil until written
	cow   atomic.Pointer[cowMapping]     // the mapping on the frame; nil if none
	dirty atomic.Bool                    // written since the last CollectDirty
}

// zeroPage is what a frame with no bytes of its own reads as. Nothing
// may write it.
var zeroPage [PageSize]byte

// cowMapping is one MapSharedRange call: frame lo+i reads pages[i], a
// shared read-only page (aliased, never written through), until its
// first write promotes it, after which onPromote, if set, runs for it.
// Every frame the call maps points to this one header, so a mapping
// costs one pointer store per frame and nothing more. A frame mapped
// again by a later call points to that call's header and runs its
// hook. pages is the caller's slice itself, which must stay unchanged
// while any frame of it is mapped.
type cowMapping struct {
	lo        PFN
	pages     [][]byte
	onPromote func(pfn PFN)
}

// page returns the shared page the mapping gives pfn.
func (c *cowMapping) page(pfn PFN) []byte { return c.pages[pfn-c.lo] }

// NewPhysMem creates a physical memory of the given byte size (rounded
// down to whole frames).
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{frames: make([]frameSlot, size>>PageShift)}
}

// NumFrames returns the number of physical frames.
func (m *PhysMem) NumFrames() PFN { return PFN(len(m.frames)) }

// Valid reports whether pfn addresses an existing frame.
func (m *PhysMem) Valid(pfn PFN) bool { return uint(pfn) < uint(len(m.frames)) }

// EnableDirtyLog starts recording written frames.
func (m *PhysMem) EnableDirtyLog() { m.dirtyOn.Store(true) }

// DisableDirtyLog stops recording and drops the log.
func (m *PhysMem) DisableDirtyLog() {
	m.dirtyOn.Store(false)
	for i := range m.frames {
		if s := &m.frames[i]; s.dirty.Load() {
			s.dirty.Store(false)
		}
	}
}

// DirtyLogEnabled reports whether writes are currently being recorded —
// migration rollback asserts the log was disarmed.
func (m *PhysMem) DirtyLogEnabled() bool { return m.dirtyOn.Load() }

// CollectDirty returns, in ascending order, the frames written since
// the last collection, and clears them. Nil if logging is off.
func (m *PhysMem) CollectDirty() []PFN {
	if !m.dirtyOn.Load() {
		return nil
	}
	out := make([]PFN, 0)
	for i := range m.frames {
		if s := &m.frames[i]; s.dirty.Load() && s.dirty.Swap(false) {
			out = append(out, PFN(i))
		}
	}
	return out
}

// markDirty records a write when logging is enabled.
func (m *PhysMem) markDirty(pfn PFN) {
	if m.dirtyOn.Load() {
		m.frames[pfn].dirty.Store(true)
	}
}

// MapShared maps pfn copy-on-write onto a shared read-only page: the
// one-frame case of MapSharedRange.
func (m *PhysMem) MapShared(pfn PFN, data []byte, onPromote func(PFN)) error {
	return m.MapSharedRange(pfn, [][]byte{data}, onPromote)
}

// MapSharedRange maps frame lo+i copy-on-write onto pages[i] for every
// non-nil pages[i]: reads see the page without any copy, and the first
// write promotes the frame to a private copy, after which onPromote, if
// set, runs once for it. Each page must be exactly one page and must
// stay immutable while mapped: it is aliased, not copied. So is pages
// itself: the caller must not change it while a frame of it is mapped.
// Any private content a mapped frame held is discarded. The batch is
// checked whole before any frame is mapped, so an error maps nothing.
func (m *PhysMem) MapSharedRange(lo PFN, pages [][]byte, onPromote func(PFN)) error {
	if uint64(lo)+uint64(len(pages)) > uint64(len(m.frames)) {
		return fmt.Errorf("hw: MapShared beyond memory: frames %d..%d", lo, uint64(lo)+uint64(len(pages)))
	}
	for i, data := range pages {
		if data != nil && len(data) != PageSize {
			return fmt.Errorf("hw: MapShared frame %d: page is %d bytes", lo+PFN(i), len(data))
		}
	}
	c := &cowMapping{lo: lo, pages: pages, onPromote: onPromote}
	var added int64
	for i, data := range pages {
		if data == nil {
			continue
		}
		s := &m.frames[lo+PFN(i)]
		if s.data.Load() != nil {
			s.data.Store(nil) // shared content replaces any private copy
		}
		if s.cow.Swap(c) == nil {
			added++
		}
	}
	m.shared.Add(added)
	return nil
}

// Scrub returns frames [lo, hi) to their never-written state: every
// copy-on-write mapping in the range is dropped without running its
// hook, and every private page moves onto the free list, for later
// first writes and promotions anywhere in memory to reuse. The frames
// read as zero afterwards; their dirty bits are left as they were.
//
// The caller must ensure that no CPU, device or grant still reaches
// the range: a write racing the scrub could land in a page that
// another frame has already reused.
func (m *PhysMem) Scrub(lo, hi PFN) {
	if lo > hi || uint(hi) > uint(len(m.frames)) {
		panic(fmt.Sprintf("hw: Scrub beyond memory: frames %d..%d", lo, hi))
	}
	var unmapped int64
	m.freeMu.Lock()
	for i := lo; i < hi; i++ {
		s := &m.frames[i]
		if s.cow.Load() != nil && s.cow.Swap(nil) != nil {
			unmapped++
		}
		if s.data.Load() != nil {
			if p := s.data.Swap(nil); p != nil {
				m.free = append(m.free, p)
			}
		}
	}
	m.nfree.Store(int64(len(m.free)))
	m.freeMu.Unlock()
	m.shared.Add(-unmapped)
}

// reuse takes a page off the free list, or returns nil when the list is
// empty. The page holds whatever its last frame wrote.
func (m *PhysMem) reuse() *[PageSize]byte {
	if m.nfree.Load() == 0 {
		return nil
	}
	m.freeMu.Lock()
	defer m.freeMu.Unlock()
	n := len(m.free)
	if n == 0 {
		return nil
	}
	p := m.free[n-1]
	m.free[n-1] = nil
	m.free = m.free[:n-1]
	m.nfree.Store(int64(n - 1))
	return p
}

// recycle puts a page that lost a publish race onto the free list.
func (m *PhysMem) recycle(p *[PageSize]byte) {
	m.freeMu.Lock()
	m.free = append(m.free, p)
	m.nfree.Store(int64(len(m.free)))
	m.freeMu.Unlock()
}

// SharedFrames returns the number of live copy-on-write mappings.
func (m *PhysMem) SharedFrames() int { return int(m.shared.Load()) }

// SharedAt reports whether pfn is still copy-on-write mapped (not yet
// promoted by a write).
func (m *PhysMem) SharedAt(pfn PFN) bool {
	return m.Valid(pfn) && m.frames[pfn].cow.Load() != nil
}

// PrivateFrames counts the frames of [lo, hi) that hold a private page
// and no copy-on-write mapping: frames written since they were last
// mapped shared or scrubbed.
func (m *PhysMem) PrivateFrames(lo, hi PFN) int {
	n := 0
	for i := lo; i < hi; i++ {
		if s := &m.frames[i]; s.cow.Load() == nil && s.data.Load() != nil {
			n++
		}
	}
	return n
}

// frameRO returns the bytes a read of pfn observes: the shared page for
// CoW-mapped frames, the private backing otherwise, zeroPage if none.
func (m *PhysMem) frameRO(pfn PFN) []byte {
	s := &m.frames[pfn]
	if c := s.cow.Load(); c != nil {
		return c.page(pfn)
	}
	if p := s.data.Load(); p != nil {
		return p[:]
	}
	return zeroPage[:]
}

// frameRW returns writable backing for pfn, allocating it on the first
// write (from the free list, cleared, if it has a page) and promoting a
// CoW mapping to a private copy.
func (m *PhysMem) frameRW(pfn PFN) []byte {
	s := &m.frames[pfn]
	if c := s.cow.Load(); c != nil {
		return m.unshare(pfn, s, c)
	}
	if p := s.data.Load(); p != nil {
		return p[:]
	}
	if p := m.reuse(); p != nil {
		clear(p[:])
		if s.data.CompareAndSwap(nil, p) {
			return p[:]
		}
		m.recycle(p)
		return s.data.Load()[:]
	}
	if p := new([PageSize]byte); s.data.CompareAndSwap(nil, p) {
		return p[:]
	}
	return s.data.Load()[:]
}

// unshare promotes pfn from its page of the mapping c to a private
// copy, in the publish order frameSlot describes. The copy overwrites
// all of a recycled page, so it needs no clearing.
func (m *PhysMem) unshare(pfn PFN, s *frameSlot, c *cowMapping) []byte {
	p := m.reuse()
	if p != nil {
		copy(p[:], c.page(pfn))
	} else {
		fresh := new([PageSize]byte)
		copy(fresh[:], c.page(pfn))
		p = fresh
	}
	if !s.data.CompareAndSwap(nil, p) {
		m.recycle(p)
		p = s.data.Load()
	}
	m.dropShared(pfn, s, c)
	return p[:]
}

// dropShared retires pfn's mapping c by a first write and reports
// whether this call did: only the winner of the CAS decrements shared
// and runs the promotion hook.
func (m *PhysMem) dropShared(pfn PFN, s *frameSlot, c *cowMapping) bool {
	if !s.cow.CompareAndSwap(c, nil) {
		return false
	}
	m.shared.Add(-1)
	if c.onPromote != nil {
		c.onPromote(pfn)
	}
	return true
}

// ReadWord reads a 32-bit little-endian word at the physical address.
func (m *PhysMem) ReadWord(a PhysAddr) uint32 {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical read beyond memory: %#x", a))
	}
	off := a & PageMask
	if off > PageSize-4 {
		panic(fmt.Sprintf("hw: unaligned word read across frame: %#x", a))
	}
	f := m.frameRO(pfn)
	return uint32(f[off]) | uint32(f[off+1])<<8 |
		uint32(f[off+2])<<16 | uint32(f[off+3])<<24
}

// WriteWord writes a 32-bit little-endian word at the physical address.
func (m *PhysMem) WriteWord(a PhysAddr, v uint32) {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical write beyond memory: %#x", a))
	}
	off := a & PageMask
	if off > PageSize-4 {
		panic(fmt.Sprintf("hw: unaligned word write across frame: %#x", a))
	}
	f := m.frameRW(pfn)
	f[off] = byte(v)
	f[off+1] = byte(v >> 8)
	f[off+2] = byte(v >> 16)
	f[off+3] = byte(v >> 24)
	m.markDirty(pfn)
}

// Load8 reads one byte at the physical address.
func (m *PhysMem) Load8(a PhysAddr) byte {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical read beyond memory: %#x", a))
	}
	return m.frameRO(pfn)[a&PageMask]
}

// Store8 writes one byte at the physical address.
func (m *PhysMem) Store8(a PhysAddr, v byte) {
	pfn := PFNOf(a)
	if !m.Valid(pfn) {
		panic(fmt.Sprintf("hw: physical write beyond memory: %#x", a))
	}
	m.frameRW(pfn)[a&PageMask] = v
	m.markDirty(pfn)
}

// CopyFrame copies the full contents of frame src into frame dst.
func (m *PhysMem) CopyFrame(dst, src PFN) {
	if !m.Valid(dst) || !m.Valid(src) {
		panic("hw: CopyFrame beyond memory")
	}
	copy(m.frameRW(dst), m.frameRO(src))
	m.markDirty(dst)
}

// ZeroFrame clears the contents of a frame. Zeroing a CoW-mapped frame
// is a write: the mapping is dropped (the promotion hook runs) and the
// frame reads as zero with nothing allocated.
func (m *PhysMem) ZeroFrame(pfn PFN) {
	if !m.Valid(pfn) {
		panic("hw: ZeroFrame beyond memory")
	}
	s := &m.frames[pfn]
	if c := s.cow.Load(); c != nil && m.dropShared(pfn, s, c) {
		m.markDirty(pfn)
		return
	}
	p := s.data.Load()
	if p == nil {
		return // never-written frames are already zero
	}
	clear(p[:])
	m.markDirty(pfn)
}

// FrameBytes returns the backing bytes of a frame for bulk operations
// (device DMA, checkpointing). The caller must respect frame ownership.
func (m *PhysMem) FrameBytes(pfn PFN) []byte {
	if !m.Valid(pfn) {
		panic("hw: FrameBytes beyond memory")
	}
	m.markDirty(pfn) // pessimistic: the caller may write
	return m.frameRW(pfn)
}

// FrameBytesRO returns the bytes a read of the frame observes, for
// read-only use (DMA out of guest memory, snapshots, migration
// senders), without touching the dirty log or allocating. For a
// CoW-mapped frame this is the shared page itself — zero copies; for a
// never-written frame it is zeroPage. Never write through it.
func (m *PhysMem) FrameBytesRO(pfn PFN) []byte {
	if !m.Valid(pfn) {
		panic("hw: FrameBytesRO beyond memory")
	}
	return m.frameRO(pfn)
}
