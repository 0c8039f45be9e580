package hw

import "time"

// Cycles counts simulated processor cycles.
type Cycles = uint64

// DefaultHz is the simulated core frequency: 3 GHz, matching the paper's
// dual 3.0 GHz Xeon testbed (DELL SC 1420).
const DefaultHz = 3_000_000_000

// Clock is a per-CPU time-stamp counter, owned by the goroutine that
// executes on its CPU: only the owner advances it, and the count is a
// plain word, so Advance is one add and Read one load. Another goroutine
// may read it only when that read is already ordered after the owner's
// last Advance, as these are:
//   - the scheduler (sched.go) reads every enrolled CPU's clock under
//     sched.mu on the turn holder, while the other CPUs are parked;
//   - LAPIC.Post(nil, v) stamps with the owner's clock, so it is called
//     only on the owner's goroutine;
//   - NIC.Transmit to a wired peer reads the peer's clock on the one
//     goroutine that drives both machines.
//
// Anything else needs its own synchronization with the owner.
type Clock struct {
	hz     uint64
	cycles Cycles
}

// NewClock returns a clock ticking at hz cycles per second.
func NewClock(hz uint64) *Clock {
	if hz == 0 {
		hz = DefaultHz
	}
	return &Clock{hz: hz}
}

// Advance moves the clock forward by n cycles and returns the new reading.
func (c *Clock) Advance(n Cycles) Cycles {
	c.cycles += n
	return c.cycles
}

// Read returns the current cycle count (the simulated RDTSC).
func (c *Clock) Read() Cycles { return c.cycles }

// Hz returns the clock frequency.
func (c *Clock) Hz() uint64 { return c.hz }

// ToDuration converts a cycle count on this clock into wall time.
func (c *Clock) ToDuration(n Cycles) time.Duration {
	// n / hz seconds, computed without overflow for realistic n.
	sec := n / c.hz
	rem := n % c.hz
	return time.Duration(sec)*time.Second +
		time.Duration(rem*uint64(time.Second)/c.hz)
}

// Micros converts a cycle count into microseconds as a float, the unit the
// paper's lmbench tables use.
func (c *Clock) Micros(n Cycles) float64 {
	return float64(n) / float64(c.hz) * 1e6
}
