package guest

import (
	"repro/internal/hw"
)

// Process-management syscalls. The expensive parts (address-space
// cloning, demand faulting) live in mm.go; these wrappers add the
// architectural trap costs and process bookkeeping.

// Fork creates a child process running childBody in a copy-on-write
// clone of the caller's address space, and returns it (the parent's
// view; the paper's benchmarks wait for the child with Wait).
func (p *Proc) Fork(name string, childBody Body) *Proc {
	k := p.K
	c := p.CPU()
	k.Stats.Forks.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())

	childAS := p.AS.clone(c)
	child := k.newProc(c, name, p, childBody)
	child.AS = childAS
	child.SegvHandler = p.SegvHandler
	k.enqueue(c, child)

	c = p.CPU()
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
	return p.children[len(p.children)-1]
}

// Exec replaces the caller's address space with a fresh one built from
// img and then runs the new program's startup: touching its text
// (read faults against the shared image file) and data (write faults
// against fresh anonymous pages), which is where exec spends its time.
func (p *Proc) Exec(img Image) {
	k := p.K
	c := p.CPU()
	c.Charge(k.M.Costs.SyscallEntry + k.M.Costs.ExecBase)
	prev := c.SetMode(k.KernelPL())

	old := p.AS
	p.AS = k.newAddrSpace(c, img)
	k.VO().ContextSwitch(c, p.AS.PT.Root)
	if old != nil {
		k.releaseAddrSpace(c, old)
	}
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)

	// New program start-up: demand-fault the working set.
	textEnd := TextBase + hw.VirtAddr(img.TextPages<<hw.PageShift)
	p.AS.TouchRange(c, p, TextBase, img.TextPages, false)
	p.AS.TouchRange(c, p, textEnd, img.DataPages, true)
}

// Mmap maps anonymous memory (see AddrSpace.MmapAnon).
func (p *Proc) Mmap(pages int, prot Prot, populate bool) hw.VirtAddr {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())
	base := p.AS.MmapAnon(c, pages, prot, populate)
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
	return base
}

// MmapFile maps pages of file f read-only (shared), page-aligned from
// file page offset 0.
func (p *Proc) MmapFile(ino *Inode, pages int) hw.VirtAddr {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())
	base := p.AS.mmapNext
	p.AS.mmapNext += hw.VirtAddr(pages << hw.PageShift)
	p.AS.vmas = append(p.AS.vmas, &VMA{
		Start: base, End: base + hw.VirtAddr(pages<<hw.PageShift),
		Prot: ProtRead, Kind: VMAFile, File: ino,
	})
	c.Charge(k.M.Costs.MemWrite * 12)
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
	return base
}

// Munmap unmaps the VMA starting at base.
func (p *Proc) Munmap(base hw.VirtAddr) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())
	p.AS.Munmap(c, base)
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
}

// Mprotect changes protections of the VMA starting at base.
func (p *Proc) Mprotect(base hw.VirtAddr, prot Prot) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	prev := c.SetMode(k.KernelPL())
	p.AS.Mprotect(c, base, prot)
	c.SetMode(prev)
	c.Charge(k.M.Costs.SyscallExit)
}

// Touch reads (or writes) one word per page across a range, running in
// user mode so faults take the architectural path.
func (p *Proc) Touch(base hw.VirtAddr, pages int, write bool) {
	p.AS.TouchRange(p.CPU(), p, base, pages, write)
}
