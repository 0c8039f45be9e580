package hw

import (
	"fmt"
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
type PhysMem struct {
	frames []frameSlot

	// shared counts the live copy-on-write mappings.
	shared atomic.Int64
	// dirtyOn turns on log-dirty mode, which live migration's pre-copy
	// rounds rely on: every write sets its frame's dirty bit until
	// CollectDirty takes it.
	dirtyOn atomic.Bool
}

// frameSlot is one frame. Its publish order means a concurrent read
// never observes a half-made frame:
//
//   - a read loads cow, then data: a CoW frame reads its shared page,
//     any other frame its private bytes, or zeroPage if it has none;
//   - the first write allocates the private page and publishes it by
//     CAS on data; a racing first write uses the winner's page;
//   - promotion fills a private copy of the shared page, CASes data
//     from nil to it (a racing promoter uses the winner's copy), and
//     only then CASes cow to nil, so a read sees either the shared
//     bytes or the filled copy. Only the side that wins the cow CAS
//     decrements PhysMem.shared and runs onPromote.
//
// A fresh page is sliced from the allocation itself, never from a
// pointer loaded back out of data: slicing a loaded *[PageSize]byte
// nil-checks it with a read of the page, and on a fresh page that read
// costs the host a second page fault per frame.
type frameSlot struct {
	data  atomic.Pointer[[PageSize]byte] // private bytes; nil until written
	cow   atomic.Pointer[cowSource]      // shared page; nil if none
	dirty atomic.Bool                    // written since the last CollectDirty
}

// zeroPage is what a frame with no bytes of its own reads as. Nothing
// may write it.
var zeroPage [PageSize]byte

// cowSource backs one copy-on-write frame: data is the shared read-only
// page (aliased, never written through), onPromote is invoked after the
// frame has been privatized by a first write.
type cowSource struct {
	data      []byte
	onPromote func(pfn PFN)
}

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

// MapShared maps pfn copy-on-write onto a shared read-only page: reads
// see data without any copy, and the first write promotes the frame to
// a private copy (after which onPromote, if set, runs once). data must
// be exactly one page and must stay immutable while mapped — it is
// aliased, not copied. Any private content the frame held is discarded.
func (m *PhysMem) MapShared(pfn PFN, data []byte, onPromote func(PFN)) error {
	if !m.Valid(pfn) {
		return fmt.Errorf("hw: MapShared beyond memory: frame %d", pfn)
	}
	if len(data) != PageSize {
		return fmt.Errorf("hw: MapShared frame %d: page is %d bytes", pfn, len(data))
	}
	s := &m.frames[pfn]
	s.data.Store(nil) // shared content replaces any private copy
	if s.cow.Swap(&cowSource{data: data, onPromote: onPromote}) == nil {
		m.shared.Add(1)
	}
	return nil
}

// UnmapShared removes a copy-on-write mapping without promoting it (the
// clone-teardown path). Reports whether pfn was mapped; the frame reads
// as zero afterwards.
func (m *PhysMem) UnmapShared(pfn PFN) bool {
	if !m.Valid(pfn) || m.frames[pfn].cow.Swap(nil) == nil {
		return false
	}
	m.shared.Add(-1)
	return true
}

// SharedFrames returns the number of live copy-on-write mappings.
func (m *PhysMem) SharedFrames() int { return int(m.shared.Load()) }

// SharedAt reports whether pfn is still copy-on-write mapped (not yet
// promoted by a write).
func (m *PhysMem) SharedAt(pfn PFN) bool {
	return m.Valid(pfn) && m.frames[pfn].cow.Load() != nil
}

// frameRO returns the bytes a read of pfn observes: the shared page for
// CoW-mapped frames, the private backing otherwise, zeroPage if none.
func (m *PhysMem) frameRO(pfn PFN) []byte {
	s := &m.frames[pfn]
	if c := s.cow.Load(); c != nil {
		return c.data
	}
	if p := s.data.Load(); p != nil {
		return p[:]
	}
	return zeroPage[:]
}

// frameRW returns writable backing for pfn, allocating it on the first
// write and promoting a CoW mapping to a private copy.
func (m *PhysMem) frameRW(pfn PFN) []byte {
	s := &m.frames[pfn]
	if c := s.cow.Load(); c != nil {
		return m.unshare(pfn, s, c)
	}
	if p := s.data.Load(); p != nil {
		return p[:]
	}
	if p := new([PageSize]byte); s.data.CompareAndSwap(nil, p) {
		return p[:]
	}
	return s.data.Load()[:]
}

// unshare promotes pfn from the shared page c to a private copy, in the
// publish order frameSlot describes.
func (m *PhysMem) unshare(pfn PFN, s *frameSlot, c *cowSource) []byte {
	p := new([PageSize]byte)
	copy(p[:], c.data)
	if !s.data.CompareAndSwap(nil, p) {
		p = s.data.Load()
	}
	m.dropShared(pfn, s, c)
	return p[:]
}

// dropShared retires pfn's mapping c by a first write and reports
// whether this call did: only the winner of the CAS decrements shared
// and runs the promotion hook.
func (m *PhysMem) dropShared(pfn PFN, s *frameSlot, c *cowSource) bool {
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
