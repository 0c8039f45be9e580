package hw

import (
	"bytes"
	"fmt"
	"sync"
)

// BlockSize is the disk transfer unit (one page).
const BlockSize = PageSize

// DiskRequest describes one block transfer. Merged is the number of
// logically distinct requests this transfer satisfies: the Xen backend
// driver coalesces adjacent ring requests before issuing them, which is
// what lets a domainU occasionally beat domain0 on throughput-oriented
// writes (the dbench anomaly the paper observes in §7.3).
type DiskRequest struct {
	Block  uint64
	Write  bool
	Blocks int // contiguous blocks in this transfer
	Merged int
}

// Disk is a simple block device. Transfers are synchronous: the issuing
// CPU is charged the request and transfer cost, and the completion raises
// the disk's interrupt line so the kernel's IRQ accounting stays honest.
//
// A zero block is a hole, the same rule as PhysMem's zero page: the
// disk stores a block only while it holds non-zero data. Writing zeros
// over a stored block drops it, a non-zero write over a stored block
// reuses its buffer, and a hole reads as zeros. The charges, the
// interrupt and every DiskStats field are the same for a hole as for a
// stored block, so only host memory tells them apart.
type Disk struct {
	m    *Machine
	line int

	mu     sync.Mutex
	blocks map[uint64][]byte // non-zero blocks only; each owned by the disk

	Stats DiskStats
}

// DiskStats counts device activity.
type DiskStats struct {
	Requests     uint64
	BlocksIO     uint64
	BytesRead    uint64
	BytesWritten uint64
}

// NewDisk builds the machine's disk on the given IO-APIC line.
func NewDisk(m *Machine, line int) *Disk {
	return &Disk{m: m, line: line, blocks: make(map[uint64][]byte)}
}

// Submit performs one transfer on behalf of c, charging request overhead
// once and per-KB cost for the payload, then raises the completion IRQ.
// buf must be req.Blocks*BlockSize bytes.
func (d *Disk) Submit(c *CPU, req DiskRequest, buf []byte) error {
	if len(buf) != req.Blocks*BlockSize {
		return fmt.Errorf("hw: disk buffer %d bytes for %d blocks", len(buf), req.Blocks)
	}
	c.Charge(d.m.Costs.DiskRequest)
	c.Charge(Cycles(req.Blocks) * Cycles(BlockSize/1024) * d.m.Costs.DiskPerKB)
	d.mu.Lock()
	for i := 0; i < req.Blocks; i++ {
		bn := req.Block + uint64(i)
		part := buf[i*BlockSize : (i+1)*BlockSize]
		if req.Write {
			b, ok := d.blocks[bn]
			switch {
			case bytes.Equal(part, zeroPage[:]):
				delete(d.blocks, bn)
			case ok:
				copy(b, part)
			default:
				b = make([]byte, BlockSize)
				copy(b, part)
				d.blocks[bn] = b
			}
			d.Stats.BytesWritten += BlockSize
		} else {
			if b, ok := d.blocks[bn]; ok {
				copy(part, b)
			} else {
				for j := range part {
					part[j] = 0
				}
			}
			d.Stats.BytesRead += BlockSize
		}
	}
	d.Stats.Requests++
	d.Stats.BlocksIO += uint64(req.Blocks)
	d.mu.Unlock()
	d.m.IOAPIC.Raise(c, d.line)
	return nil
}
