package guest

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/xen"
)

// BlockReq is one page-sized block transfer between a cache frame and
// the disk.
type BlockReq struct {
	Block uint64
	Write bool
	PFN   hw.PFN
}

// BlockDriver is the kernel's block-layer attachment point. The driver
// is one of the virtualization-sensitive I/O surfaces (§3.2.4): native
// kernels drive the disk directly, virtualized kernels go through the
// split frontend.
type BlockDriver interface {
	// Submit performs the batch, blocking until completion.
	Submit(c *hw.CPU, reqs []BlockReq)
}

// NativeBlock drives hw.Disk directly, with elevator-style merging of
// contiguous requests — what the native kernel's block layer does.
type NativeBlock struct {
	K    *Kernel
	Disk *hw.Disk
}

// RawDevice adapts the native driver into the backend's BlockDevice so
// requests forwarded from a frontend still pay the driver domain's
// block-layer costs.
func (d *NativeBlock) RawDevice() xen.BlockDevice { return rawBlock{d} }

type rawBlock struct{ d *NativeBlock }

func (r rawBlock) Submit(c *hw.CPU, req hw.DiskRequest, buf []byte) error {
	c.Charge(r.d.K.M.Costs.BlkDriverStack)
	return r.d.Disk.Submit(c, req, buf)
}

// Submit sorts, merges and issues the batch.
func (d *NativeBlock) Submit(c *hw.CPU, reqs []BlockReq) {
	if len(reqs) == 0 {
		return
	}
	sorted := make([]BlockReq, len(reqs))
	copy(sorted, reqs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Block < sorted[j].Block })
	for start := 0; start < len(sorted); {
		end := start + 1
		for end < len(sorted) &&
			sorted[end].Write == sorted[start].Write &&
			sorted[end].Block == sorted[end-1].Block+1 {
			end++
		}
		group := sorted[start:end]
		c.Charge(d.K.M.Costs.BlkDriverStack)
		buf := make([]byte, len(group)*hw.BlockSize)
		if group[0].Write {
			for i, q := range group {
				c.Charge(d.K.M.Costs.PageCopy)
				d.K.FS.bufMu.Lock()
				copy(buf[i*hw.BlockSize:(i+1)*hw.BlockSize], d.K.M.Mem.FrameBytesRO(q.PFN))
				d.K.FS.bufMu.Unlock()
			}
		}
		if err := d.Disk.Submit(c, hw.DiskRequest{
			Block: group[0].Block, Write: group[0].Write,
			Blocks: len(group), Merged: len(group),
		}, buf); err != nil {
			panic(fmt.Sprintf("guest: disk: %v", err))
		}
		if !group[0].Write {
			for i, q := range group {
				c.Charge(d.K.M.Costs.PageCopy)
				copy(d.K.M.Mem.FrameBytes(q.PFN), buf[i*hw.BlockSize:(i+1)*hw.BlockSize])
			}
		}
		start = end
	}
}
