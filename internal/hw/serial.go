package hw

import (
	"strings"
	"sync"
)

// Serial is a polled UART-style console device driven by privileged
// port output — one of the sensitive I/O surfaces (§3.2.4): a native
// kernel writes the port directly at PL0; a deprivileged kernel cannot
// (the instruction faults) and must use the VMM's console service.
type Serial struct {
	m  *Machine
	mu sync.Mutex

	cur   strings.Builder
	lines []string
}

// NewSerial builds the console UART.
func NewSerial(m *Machine) *Serial { return &Serial{m: m} }

// WritePort emits one byte through the data port. Privileged: at CPL>0
// the access faults to #GP (which a VMM can catch and emulate).
func (s *Serial) WritePort(c *CPU, b byte) {
	c.Charge(s.m.Costs.PrivInsn)
	if c.CPL != PL0 {
		c.RaiseGP("out to serial port")
		return
	}
	c.Charge(s.m.Costs.MemWrite * 4) // UART FIFO poll + write
	s.mu.Lock()
	if b == '\n' {
		s.lines = append(s.lines, s.cur.String())
		s.cur.Reset()
	} else {
		s.cur.WriteByte(b)
	}
	s.mu.Unlock()
}

// Lines returns the completed output lines.
func (s *Serial) Lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.lines))
	copy(out, s.lines)
	return out
}
