package bench

import (
	"repro/internal/guest"
	"repro/internal/hw"
)

// Run spawns an init process with the default image on the measured
// kernel and drives the scheduler on every CPU until all processes have
// exited. It returns the boot CPU's elapsed cycles.
func (s *System) Run(name string, body guest.Body) hw.Cycles {
	boot := s.M.BootCPU()
	start := boot.Now()
	s.K.Spawn(boot, name, guest.DefaultImage(name), body)
	s.M.Run(s.K.Run)
	return boot.Now() - start
}

// Micros converts boot-CPU cycles to microseconds.
func (s *System) Micros(n hw.Cycles) float64 { return s.M.Micros(n) }

// Residents forks n resident processes from p and returns once every
// one is parked: each runs fault (to populate its address space),
// signals ready, and blocks on a pipe. release wakes the residents and
// reaps them. Their page-table trees are what an attach must validate,
// so a switch measured in between pays for a realistic working set.
func Residents(p *guest.Proc, n int, fault func(*guest.Proc)) (release func()) {
	k := p.K
	hold := k.NewPipe()
	ready := k.NewPipe()
	for i := 0; i < n; i++ {
		p.Fork("load", func(lp *guest.Proc) {
			fault(lp)
			lp.PipeWrite(ready, 1)
			lp.PipeRead(hold, 1)
			lp.Exit(0)
		})
	}
	p.PipeRead(ready, n)
	return func() {
		p.PipeWrite(hold, n)
		for i := 0; i < n; i++ {
			p.Wait()
		}
	}
}
