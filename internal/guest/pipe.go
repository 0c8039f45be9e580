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
}

// DefaultPipeCap matches the traditional 64 KB pipe buffer.
const DefaultPipeCap = 64 << 10

// NewPipe creates a pipe.
func (k *Kernel) NewPipe() *Pipe {
	return &Pipe{k: k, cap: DefaultPipeCap}
}

// PipeWrite adds n bytes, blocking while the buffer is full.
func (p *Proc) PipeWrite(pi *Pipe, n int) { p.pipeMove(pi, n, true) }

// PipeRead consumes n bytes, blocking until they are available.
func (p *Proc) PipeRead(pi *Pipe, n int) { p.pipeMove(pi, n, false) }

// pipeMove moves n bytes into (write) or out of pi, sleeping while it is
// full (empty) and waking the other side after each chunk.
func (p *Proc) pipeMove(pi *Pipe, n int, write bool) {
	k := p.K
	c := p.CPU()
	k.Stats.Syscalls.Add(1)
	c.Charge(k.M.Costs.SyscallEntry)
	sleep, other, cost := &pi.readers, &pi.writers, k.M.Costs.MemRead
	if write {
		sleep, other, cost = &pi.writers, &pi.readers, k.M.Costs.MemWrite
	}
	for n > 0 {
		k.acquire(c)
		room := pi.avail
		if write {
			room = pi.cap - pi.avail
		}
		if room == 0 {
			k.lk.Unlock(c)
			k.sleepOn(sleep, p)
			c = p.CPU()
			continue
		}
		chunk := min(n, room)
		if n -= chunk; write {
			pi.avail += chunk
		} else {
			pi.avail -= chunk
		}
		k.lk.Unlock(c)
		c.Charge(hw.Cycles(chunk/64+1) * cost)
		k.wakeAll(c, other)
	}
	c.Charge(k.M.Costs.SyscallExit)
}
