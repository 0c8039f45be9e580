package guest

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hw"
	"repro/internal/pgtable"
	"repro/internal/xen"
)

// Prot is a VMA protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// VMAKind distinguishes mapping backings.
type VMAKind uint8

// Mapping kinds.
const (
	VMAAnon VMAKind = iota
	VMAFile         // shared read-only file pages (program text)
)

// VMA is one virtual memory area.
type VMA struct {
	Start, End hw.VirtAddr // [Start, End), page aligned
	Prot       Prot
	Kind       VMAKind
	File       *Inode
	FileOff    int // page offset into the file
}

// Pages returns the VMA length in pages.
func (v *VMA) Pages() int { return int((v.End - v.Start) >> hw.PageShift) }

// Canonical user address-space layout.
const (
	TextBase  hw.VirtAddr = 0x0800_0000
	MmapBase  hw.VirtAddr = 0x4000_0000
	StackTop  hw.VirtAddr = 0xBFFF_F000
	UserLimit hw.VirtAddr = 0xC000_0000
)

// Image describes a program binary: how many pages of (shared,
// file-backed) text, private data and stack it has. The defaults
// approximate the lmbench binary plus libc that the paper's process
// benchmarks repeatedly fork and exec.
type Image struct {
	Name       string
	TextPages  int
	DataPages  int
	StackPages int
}

// DefaultImage is the standard benchmark process image.
func DefaultImage(name string) Image {
	return Image{Name: name, TextPages: 180, DataPages: 220, StackPages: 32}
}

// AddrSpace is one process address space: a page-table tree plus the VMA
// list describing intent.
type AddrSpace struct {
	K    *Kernel
	PT   *pgtable.Tables
	vmas []*VMA
	rss  int // resident (mapped) pages

	mmapNext hw.VirtAddr
}

// newAddrSpace builds a fresh address space for img: text mapped lazily
// from the image's backing file, data and stack anonymous and lazy. The
// tree is built with direct stores (it is not live yet) and registered
// with the virtualization object before first use.
func (k *Kernel) newAddrSpace(c *hw.CPU, img Image) *AddrSpace {
	pt, err := pgtable.New(k.M.Mem, k.Frames.Alloc)
	if err != nil {
		panic(fmt.Sprintf("guest: %v", err))
	}
	as := &AddrSpace{K: k, PT: pt, mmapNext: MmapBase}
	text := &VMA{
		Start: TextBase,
		End:   TextBase + hw.VirtAddr(img.TextPages<<hw.PageShift),
		Prot:  ProtRead | ProtExec,
		Kind:  VMAFile,
		File:  k.FS.imageFile(c, img),
	}
	data := &VMA{
		Start: text.End,
		End:   text.End + hw.VirtAddr(img.DataPages<<hw.PageShift),
		Prot:  ProtRead | ProtWrite,
		Kind:  VMAAnon,
	}
	stack := &VMA{
		Start: StackTop - hw.VirtAddr(img.StackPages<<hw.PageShift),
		End:   StackTop,
		Prot:  ProtRead | ProtWrite,
		Kind:  VMAAnon,
	}
	as.vmas = []*VMA{text, data, stack}
	c.Charge(k.M.Costs.MemWrite * 40) // vma setup
	k.VO().RegisterRoot(c, pt.Root)
	return as
}

// findVMA returns the VMA containing va.
func (as *AddrSpace) findVMA(va hw.VirtAddr) *VMA {
	for _, v := range as.vmas {
		if va >= v.Start && va < v.End {
			return v
		}
	}
	return nil
}

// mapPage installs one resident page through the current virtualization
// object (the tree is live).
func (as *AddrSpace) mapPage(c *hw.CPU, va hw.VirtAddr, pfn hw.PFN, flags uint32) {
	k := as.K
	s, err := as.PT.SlotFor(va, k.Frames.Alloc, k.voWriter(c))
	if err != nil {
		panic(fmt.Sprintf("guest: %v", err))
	}
	k.VO().WritePTE(c, s.Table, s.Index, hw.MakePTE(pfn, flags|hw.PTEPresent))
	as.rss++
}

// pteFlags computes hardware flags for a VMA's pages. wr forces the
// writable bit off for COW.
func pteFlags(prot Prot, cow bool) uint32 {
	f := hw.PTEUser
	if prot&ProtWrite != 0 && !cow {
		f |= hw.PTEWrite
	}
	if cow {
		f |= hw.PTECow
	}
	return f
}

// HandleFault resolves a page fault in this address space. Returns an
// error for a true protection violation (the process's segv handler, if
// any, runs first).
func (as *AddrSpace) HandleFault(c *hw.CPU, p *Proc, f *hw.TrapFrame) error {
	k := as.K
	k.Stats.PageFaults.Add(1)
	c.Charge(k.M.Costs.FaultWork)
	va := f.Addr
	v := as.findVMA(va)
	if v == nil {
		return fmt.Errorf("guest: segfault at %#x (no mapping)", va)
	}
	if f.Write && v.Prot&ProtWrite == 0 {
		return fmt.Errorf("guest: write to read-only mapping at %#x", va)
	}

	pte, present := as.PT.Lookup(va)
	if present && f.Write && pte.Cow() {
		// Copy-on-write break.
		old := pte.Frame()
		if k.pageRefCount(old) > 1 {
			fresh := k.allocFrame(c, false)
			k.M.Mem.CopyFrame(fresh, old)
			c.Charge(k.M.Costs.PageCopy)
			k.refPage(fresh)
			s, _ := as.PT.ExistingSlot(va)
			k.VO().WritePTE(c, s.Table, s.Index,
				hw.MakePTE(fresh, pteFlags(v.Prot, false)|hw.PTEPresent))
			k.unrefPage(old)
		} else {
			// Sole owner: upgrade in place.
			s, _ := as.PT.ExistingSlot(va)
			k.VO().WritePTE(c, s.Table, s.Index,
				hw.MakePTE(old, pteFlags(v.Prot, false)|hw.PTEPresent))
		}
		k.VO().InvalidatePage(c, va)
		return nil
	}
	if present {
		// Spurious (e.g., TLB had stale entry) — refresh.
		k.VO().InvalidatePage(c, va)
		return nil
	}

	// Demand fill.
	switch v.Kind {
	case VMAFile:
		pgIdx := v.FileOff + int((va-v.Start)>>hw.PageShift)
		pfn := k.cachePage(c, v.File, pgIdx)
		k.refPage(pfn)
		as.mapPage(c, va, pfn, hw.PTEUser) // shared read-only
	case VMAAnon:
		pfn := k.allocFrame(c, true)
		k.refPage(pfn)
		as.mapPage(c, va, pfn, pteFlags(v.Prot, false))
	}
	return nil
}

// pageFault is the kernel's #PF entry point (native: installed in the
// hardware IDT; virtual: registered with the VMM and bounced).
func (k *Kernel) pageFault(c *hw.CPU, f *hw.TrapFrame) {
	p := k.cur[c.ID]
	if p == nil || p.AS == nil {
		panic(fmt.Sprintf("guest: page fault at %#x outside process context", f.Addr))
	}
	if err := p.AS.HandleFault(c, p, f); err != nil {
		if p.SegvHandler != nil {
			c.Charge(k.M.Costs.SignalDeliver)
			if p.SegvHandler(p, f) {
				return
			}
		}
		panic(err)
	}
}

// MmapAnon maps pages of anonymous memory, returning the base address.
// populate pre-faults every page with one batched sensitive update (as
// MAP_POPULATE does); otherwise pages fault in on demand.
func (as *AddrSpace) MmapAnon(c *hw.CPU, pages int, prot Prot, populate bool) hw.VirtAddr {
	k := as.K
	base := as.mmapNext
	as.mmapNext += hw.VirtAddr(pages << hw.PageShift)
	v := &VMA{Start: base, End: base + hw.VirtAddr(pages<<hw.PageShift), Prot: prot, Kind: VMAAnon}
	as.vmas = append(as.vmas, v)
	c.Charge(k.M.Costs.MemWrite * 12) // vma insert
	if !populate {
		return base
	}
	k.lazyBegin(c)
	defer k.lazyEnd(c)
	batch := make([]xen.MMUUpdate, 0, pages)
	for i := 0; i < pages; i++ {
		va := base + hw.VirtAddr(i<<hw.PageShift)
		c.Charge(k.M.Costs.MapPerPage)
		pfn := k.allocFrame(c, true)
		k.refPage(pfn)
		s, err := as.PT.SlotFor(va, k.Frames.Alloc, k.voWriter(c))
		if err != nil {
			panic(fmt.Sprintf("guest: %v", err))
		}
		batch = append(batch, xen.MMUUpdate{Table: s.Table, Index: s.Index,
			New: hw.MakePTE(pfn, pteFlags(prot, false)|hw.PTEPresent)})
		as.rss++
	}
	k.flushBatch(c, batch)
	return base
}

// mmuBatchMax is the multicall page limit: larger batches are split.
const mmuBatchMax = 128

// flushBatch issues a batched sensitive update in multicall-sized chunks.
func (k *Kernel) flushBatch(c *hw.CPU, batch []xen.MMUUpdate) {
	for len(batch) > 0 {
		n := len(batch)
		if n > mmuBatchMax {
			n = mmuBatchMax
		}
		k.VO().WritePTEBatch(c, batch[:n])
		batch = batch[n:]
	}
}

// Munmap removes the mapping starting at base (must match a whole VMA).
func (as *AddrSpace) Munmap(c *hw.CPU, base hw.VirtAddr) {
	k := as.K
	idx := -1
	for i, v := range as.vmas {
		if v.Start == base {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("guest: munmap of unmapped base %#x", base))
	}
	v := as.vmas[idx]
	// zap_pte_range: each present entry is cleared with an individual
	// sensitive store (pinned tables leave no raw-write shortcut).
	var frames []hw.PFN
	k.lazyBegin(c)
	as.PT.VisitRange(v.Start, v.End, func(m pgtable.Mapping) bool {
		c.Charge(k.M.Costs.UnmapPerPage)
		k.VO().WritePTE(c, m.Slot.Table, m.Slot.Index, 0)
		frames = append(frames, m.PTE.Frame())
		as.rss--
		return true
	})
	// Drain before the frames are released: a deferred clear must reach
	// the VMM while the old frame's accounting references are still the
	// ones it will drop.
	k.lazyEnd(c)
	for _, pfn := range frames {
		k.unrefPage(pfn)
	}
	as.vmas = append(as.vmas[:idx], as.vmas[idx+1:]...)
	k.VO().FlushTLB(c)
}

// Mprotect changes the protection of the VMA starting at base, updating
// resident mappings with one batched sensitive update.
func (as *AddrSpace) Mprotect(c *hw.CPU, base hw.VirtAddr, prot Prot) {
	k := as.K
	v := as.findVMA(base)
	if v == nil || v.Start != base {
		panic(fmt.Sprintf("guest: mprotect of unmapped base %#x", base))
	}
	v.Prot = prot
	k.lazyBegin(c)
	defer k.lazyEnd(c)
	// One update per resident page of the VMA, collected into this
	// CPU's batch: grown once up front, so it never regrows mid-walk.
	batch := slices.Grow(k.mmuBatch[c.ID][:0], min(v.Pages(), as.rss))
	as.PT.VisitRange(v.Start, v.End, func(m pgtable.Mapping) bool {
		cow := m.PTE.Cow()
		flags := pteFlags(prot, cow) | hw.PTEPresent
		batch = append(batch, xen.MMUUpdate{Table: m.Slot.Table, Index: m.Slot.Index,
			New: hw.MakePTE(m.PTE.Frame(), flags)})
		return true
	})
	k.mmuBatch[c.ID] = batch
	k.flushBatch(c, batch)
	k.VO().FlushTLB(c)
}

// clone builds the child address space for fork. As in Xen-Linux
// 2.6.16, page-table pages are pinned from creation, so every entry
// copied into the child and every copy-on-write downgrade of a parent
// entry is an individual sensitive store — a direct write natively, a
// mediated update under a VMM. This per-entry stream is what makes
// paravirtual fork several times slower than native (Table 1).
func (as *AddrSpace) clone(c *hw.CPU) *AddrSpace {
	k := as.K
	c.Charge(k.M.Costs.ForkBase)

	// Child tree: an empty pinned root, filled entry by entry.
	childPT, err := pgtable.New(k.M.Mem, k.Frames.Alloc)
	if err != nil {
		panic(fmt.Sprintf("guest: fork: %v", err))
	}
	k.lazyBegin(c)
	defer k.lazyEnd(c)
	k.VO().RegisterRoot(c, childPT.Root)
	wr := k.voWriter(c)
	as.PT.Visit(func(m pgtable.Mapping) bool {
		c.Charge(k.M.Costs.ForkPerPage)
		k.refPage(m.PTE.Frame())
		entry := m.PTE
		if entry.Writable() {
			cow := entry.WithFlags(entry.Flags()&^hw.PTEWrite | hw.PTECow)
			// Parent downgrade, one sensitive store per entry.
			k.VO().WritePTE(c, m.Slot.Table, m.Slot.Index, cow)
			entry = cow
		}
		s, err := childPT.SlotFor(m.VA, k.Frames.Alloc, wr)
		if err != nil {
			panic(fmt.Sprintf("guest: fork: %v", err))
		}
		k.VO().WritePTE(c, s.Table, s.Index, entry)
		return true
	})
	k.VO().FlushTLB(c) // stale writable translations must go

	child := &AddrSpace{K: k, PT: childPT, mmapNext: as.mmapNext, rss: as.rss}
	child.vmas = make([]*VMA, len(as.vmas))
	for i, v := range as.vmas {
		cp := *v
		child.vmas[i] = &cp
	}
	return child
}

// releaseAddrSpace retires an address space. exit_mmap zaps each present
// entry individually (a sensitive store per entry, like any other
// page-table write on a pinned tree), then the empty tree is unpinned
// and its table frames freed — under a VMM, at c's next root load if
// c's CR3 still holds it (an exiting process), see Kernel.retired.
func (k *Kernel) releaseAddrSpace(c *hw.CPU, as *AddrSpace) {
	var frames []hw.PFN
	k.lazyBegin(c)
	as.PT.Visit(func(m pgtable.Mapping) bool {
		c.Charge(k.M.Costs.UnmapPerPage / 2)
		k.VO().WritePTE(c, m.Slot.Table, m.Slot.Index, 0)
		frames = append(frames, m.PTE.Frame())
		return true
	})
	k.VO().ReleaseRoot(c, as.PT.Root)
	// Drain the deferred zap + unpin before the table and data frames go
	// back to the allocator (see Munmap).
	k.lazyEnd(c)
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, pfn := range frames {
		k.unrefPage(pfn)
	}
	if k.VO().Virtualized() && c.ReadCR3() == as.PT.Root {
		k.retired[c.ID] = append(k.retired[c.ID], as.PT)
		return
	}
	as.PT.Free(k.Frames.Free)
}

// TouchWorkingSet re-touches a resident working set after a context
// switch: every page costs a TLB refill plus its share of cold cache
// lines (the lmbench lat_ctx working-set effect).
func (as *AddrSpace) TouchWorkingSet(c *hw.CPU, base hw.VirtAddr, pages int, coldLines hw.Cycles) {
	prev := c.SetMode(hw.PL3)
	for i := 0; i < pages; i++ {
		c.TouchPage(base + hw.VirtAddr(i<<hw.PageShift))
		c.Charge(coldLines)
	}
	c.SetMode(prev)
}

// TouchRange touches one word in each page of [base, base+pages), with
// write access if wr is set — the demand-fault driver used by exec and
// the benchmarks.
func (as *AddrSpace) TouchRange(c *hw.CPU, p *Proc, base hw.VirtAddr, pages int, wr bool) {
	prev := c.SetMode(hw.PL3)
	for i := 0; i < pages; i++ {
		va := base + hw.VirtAddr(i<<hw.PageShift)
		if wr {
			c.WriteWord(va, uint32(va))
		} else {
			_ = c.ReadWord(va)
		}
	}
	c.SetMode(prev)
}
