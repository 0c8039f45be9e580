package guest

import "repro/internal/hw"

// Pipe is a byte-counting kernel pipe — enough to reproduce the lmbench
// lat_ctx token-passing ring, where each read of an empty pipe blocks
// the reader and forces a context switch.
type Pipe struct {
	k       *Kernel
	avail   int
	cap     int
	readers waitQueue
	writers waitQueue
	closed  bool
}

// DefaultPipeCap matches the traditional 64 KB pipe buffer.
const DefaultPipeCap = 64 << 10

// NewPipe creates a pipe.
func (k *Kernel) NewPipe() *Pipe {
	return &Pipe{k: k, cap: DefaultPipeCap}
}

// Write adds n bytes, blocking while the buffer is full.
func (p *Proc) PipeWrite(pi *Pipe, n int) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	rem := n
	for rem > 0 {
		k.acquire(c)
		space := pi.cap - pi.avail
		if space == 0 {
			k.lk.Unlock(c)
			k.sleepOn(&pi.writers, p)
			c = p.CPU()
			continue
		}
		chunk := rem
		if chunk > space {
			chunk = space
		}
		pi.avail += chunk
		rem -= chunk
		k.lk.Unlock(c)
		c.Charge(hw.Cycles(chunk/64+1) * k.M.Costs.MemWrite)
		k.wakeAll(c, &pi.readers)
	}
	c.Charge(k.M.Costs.SyscallExit)
}

// Read consumes n bytes, blocking until they are available.
func (p *Proc) PipeRead(pi *Pipe, n int) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	rem := n
	for rem > 0 {
		k.acquire(c)
		if pi.avail == 0 {
			k.lk.Unlock(c)
			k.sleepOn(&pi.readers, p)
			c = p.CPU()
			continue
		}
		chunk := rem
		if chunk > pi.avail {
			chunk = pi.avail
		}
		pi.avail -= chunk
		rem -= chunk
		k.lk.Unlock(c)
		c.Charge(hw.Cycles(chunk/64+1) * k.M.Costs.MemRead)
		k.wakeAll(c, &pi.writers)
	}
	c.Charge(k.M.Costs.SyscallExit)
}
