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
