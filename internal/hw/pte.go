package hw

import (
	"encoding/binary"
	"fmt"
)

// Page-table entry format: a 32-bit word with x86-style flag bits in the
// low 12 bits and the frame number above. Both levels of the two-level
// tree use the same format. The hardware walker in this package and the
// VMM's validation code in internal/xen interpret entries identically,
// which is what lets the VMM install guest page tables directly
// ("direct mode", §3.2.2) with write access withheld.
const (
	PTEPresent  uint32 = 1 << 0
	PTEWrite    uint32 = 1 << 1
	PTEUser     uint32 = 1 << 2
	PTEAccessed uint32 = 1 << 5
	PTEDirty    uint32 = 1 << 6
	PTEGlobal   uint32 = 1 << 8
	// PTECow is a software bit marking copy-on-write mappings. Hardware
	// ignores software bits; the guest's fault handler interprets it.
	PTECow uint32 = 1 << 9

	pteFlagMask uint32 = 0xFFF
)

// PTE is one page-table entry value.
type PTE uint32

// MakePTE builds an entry mapping pfn with the given flag bits.
func MakePTE(pfn PFN, flags uint32) PTE {
	return PTE(uint32(pfn)<<PageShift | (flags & pteFlagMask))
}

// Present reports whether the entry maps a page.
func (e PTE) Present() bool { return uint32(e)&PTEPresent != 0 }

// Writable reports whether the mapping permits writes.
func (e PTE) Writable() bool { return uint32(e)&PTEWrite != 0 }

// UserOK reports whether user-mode code may use the mapping.
func (e PTE) UserOK() bool { return uint32(e)&PTEUser != 0 }

// Cow reports whether the mapping is copy-on-write.
func (e PTE) Cow() bool { return uint32(e)&PTECow != 0 }

// Frame returns the mapped physical frame.
func (e PTE) Frame() PFN { return PFN(uint32(e) >> PageShift) }

// Flags returns the raw flag bits.
func (e PTE) Flags() uint32 { return uint32(e) & pteFlagMask }

// WithFlags returns the entry with flag bits replaced.
func (e PTE) WithFlags(flags uint32) PTE {
	return PTE(uint32(e)&^pteFlagMask | flags&pteFlagMask)
}

// Two-level tree geometry: 1024 entries per level, 4 MB per directory
// entry, 4 KB per leaf.
const (
	PTEntries   = PageSize / 4 // 1024 entries per table page
	PDShift     = 22
	PTIndexMask = PTEntries - 1
)

// PDIndex returns the page-directory index of a virtual address.
func PDIndex(a VirtAddr) int { return int(a >> PDShift) }

// PTIndex returns the page-table index of a virtual address.
func PTIndex(a VirtAddr) int { return int(a>>PageShift) & PTIndexMask }

// ReadPTE reads a page-table entry from physical memory: table is the
// frame holding the table page, idx the entry index.
func ReadPTE(m *PhysMem, table PFN, idx int) PTE {
	return PTE(m.ReadWord(table.Addr() + PhysAddr(idx*4)))
}

// TableView is a read-only view of the PTEntries entries of one
// page-table frame, taken with one frame load. Full-table scans read
// through it; a single entry is read with ReadPTE.
type TableView struct{ b *[PageSize]byte }

// ViewTable returns a view of the page table in frame table.
//
// The view's contract: while a walk reads through it, the walk (its
// callback included) may store only to the entry it was just handed or
// to entries it has already read, and nothing else stores to the
// table. Under that contract At(i) equals
// ReadPTE(m, table, i) at the moment of the read. On a private frame
// the view is live, since it reads the frame's own bytes. On a
// copy-on-write or never-written frame it reads the shared page or the
// zero page; a store promotes the frame to new bytes the view does not
// see, but it changes only entries the walk has already read.
func ViewTable(m *PhysMem, table PFN) TableView {
	if !m.Valid(table) {
		panic(fmt.Sprintf("hw: page-table view beyond memory: frame %d", table))
	}
	return TableView{(*[PageSize]byte)(m.frameRO(table))}
}

// At returns entry i of the table.
func (v TableView) At(i int) PTE {
	return PTE(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// WritePTE stores a page-table entry into physical memory. This is the
// raw store; whether a kernel may perform it directly or must go through
// the VMM is decided by the virtualization object layer.
func WritePTE(m *PhysMem, table PFN, idx int, e PTE) {
	m.WriteWord(table.Addr()+PhysAddr(idx*4), uint32(e))
}

// TableWriter is a writable view of the PTEntries entries of one
// page-table frame, taken with one frame load: a run of stores to one
// table writes through it instead of loading the frame per WritePTE.
type TableWriter struct {
	b   *[PageSize]byte
	m   *PhysMem
	pfn PFN
}

// WriteTable returns a writable view of the page table in frame table.
// Taking it is the frame's first write: a never-written frame gets its
// bytes and a copy-on-write frame is promoted, onPromote hook and all,
// as a WritePTE would.
//
// The view holds the frame's own bytes, the page every later store to
// the frame goes to, so it stays live: At reads what ReadPTE would and
// Set lands where WritePTE would, whoever else stores to the frame,
// until a MapSharedRange or Scrub of the frame replaces its page.
func WriteTable(m *PhysMem, table PFN) TableWriter {
	if !m.Valid(table) {
		panic(fmt.Sprintf("hw: page-table write beyond memory: frame %d", table))
	}
	return TableWriter{(*[PageSize]byte)(m.frameRW(table)), m, table}
}

// At returns entry i of the table.
func (w TableWriter) At(i int) PTE {
	return PTE(binary.LittleEndian.Uint32(w.b[i*4:]))
}

// Set stores entry i of the table, marking the frame dirty per store as
// WritePTE does.
func (w TableWriter) Set(i int, e PTE) {
	binary.LittleEndian.PutUint32(w.b[i*4:], uint32(e))
	w.m.markDirty(w.pfn)
}

// WalkResult is the outcome of a hardware page-table walk.
type WalkResult struct {
	PTE   PTE
	Table PFN // frame of the leaf table holding the entry
	Index int // index within that table
}

// Walk performs the two-level hardware walk for va starting at the page
// directory in frame cr3. It returns ok=false if either level is not
// present. Walk itself charges nothing; the CPU charges walk cost at its
// call sites so TLB hits can skip it.
func Walk(m *PhysMem, cr3 PFN, va VirtAddr) (WalkResult, bool) {
	pde := ReadPTE(m, cr3, PDIndex(va))
	if !pde.Present() {
		return WalkResult{}, false
	}
	pt := pde.Frame()
	pte := ReadPTE(m, pt, PTIndex(va))
	if !pte.Present() {
		return WalkResult{PTE: pte, Table: pt, Index: PTIndex(va)}, false
	}
	return WalkResult{PTE: pte, Table: pt, Index: PTIndex(va)}, true
}
