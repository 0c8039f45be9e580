package hw

import (
	"sync"
	"sync/atomic"
)

// never is the next-event time of a halted CPU with no timer armed and
// nothing it can take pending: only a post wakes it.
const never = ^Cycles(0)

// sched is a machine's virtual-time scheduler, one conservative
// discrete-event rule. Of the CPUs in a running Machine.Run, exactly one
// executes on the host at a time: the lowest by (clock, ID), where a
// halted CPU's clock is the time of its next event. The running CPU
// keeps the turn until a Charge takes its clock past the next-lowest
// CPU's; it then hands the turn over and blocks. Cross-CPU effects thus
// land in simulated-time order whatever the host's goroutine
// interleaving. It is safe because no host lock spans a Charge.
type sched struct {
	mu      sync.Mutex
	running atomic.Bool
	turn    *CPU // the executing CPU
}

// Run executes body on every CPU, each in its own goroutine, under the
// virtual-time schedule, and returns when every body has returned. All
// CPUs are enrolled before any body starts; a CPU whose body returns
// leaves the schedule. Run may not nest. A body waits for another CPU
// only by Charge or IdleUntil: blocking the turn holder stalls them all.
func (m *Machine) Run(body func(c *CPU)) {
	s := &m.sched
	if !s.running.CompareAndSwap(false, true) {
		panic("hw: Machine.Run inside Machine.Run")
	}
	s.mu.Lock()
	for _, c := range m.CPUs {
		c.enrolled = true
	}
	m.pick()
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range m.CPUs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.mu.Lock()
			c.waitTurn()
			s.mu.Unlock()
			body(c)
			s.mu.Lock()
			c.enrolled = false
			c.yieldAt.Store(never)
			m.pick()
			s.mu.Unlock()
		}()
	}
	wg.Wait()
	s.running.Store(false)
}

// Running reports whether a Machine.Run is in progress.
func (m *Machine) Running() bool { return m.sched.running.Load() }

// key is c's place in the schedule. Callers hold sched.mu.
func (c *CPU) key() Cycles {
	if c.waiting {
		return c.wakeAt
	}
	return c.Clk.Read()
}

// pick gives the turn to the enrolled CPU lowest by (key, ID).
// Callers hold sched.mu.
func (m *Machine) pick() {
	var next *CPU
	enrolled := false
	for _, c := range m.CPUs {
		enrolled = enrolled || c.enrolled
		if c.enrolled && c.key() != never && (next == nil || c.key() < next.key()) {
			next = c
		}
	}
	if next == nil && enrolled {
		panic("hw: every CPU in Machine.Run is halted with no timer armed and nothing pending")
	}
	m.sched.turn = next
	if next != nil {
		m.setYield(next)
		next.wake.Signal()
	}
}

// setYield sets the turn holder t's hand-over clock: the lowest key of
// the other enrolled CPUs, plus one for a CPU that loses a tie to t.
// Callers hold sched.mu.
func (m *Machine) setYield(t *CPU) {
	at := never
	for _, o := range m.CPUs {
		if k := o.key(); o != t && o.enrolled && k != never {
			if o.ID > t.ID {
				k++
			}
			at = min(at, k)
		}
	}
	t.yieldAt.Store(at)
}

// waitTurn blocks until c holds the turn. Callers hold sched.mu.
func (c *CPU) waitTurn() {
	for c.M.sched.turn != c {
		c.wake.Wait()
	}
}

// handOver passes the turn on once c's clock reaches yieldAt, and
// blocks until c is the lowest again.
func (c *CPU) handOver() {
	c.M.sched.mu.Lock()
	c.M.pick()
	c.waitTurn()
	c.M.sched.mu.Unlock()
}

// halt takes c out of the runnable set until its next event — its
// timer deadline or its earliest pending post — and returns with c's
// clock at that event. With no event, c blocks until a post arrives.
func (c *CPU) halt() {
	c.M.sched.mu.Lock()
	defer c.M.sched.mu.Unlock()
	c.waiting = true
	c.wakeAt = c.LAPIC.nextEvent(c.Clk.Read(), c.IF && c.intrDepth == 0)
	if c.enrolled {
		c.M.pick()
	}
	for (c.enrolled && c.M.sched.turn != c) || c.wakeAt == never {
		c.wake.Wait()
	}
	c.waiting = false
	if now := c.Clk.Read(); c.wakeAt > now {
		c.Stats.IdleCycles += c.wakeAt - now
		c.Clk.Advance(c.wakeAt - now)
	}
}

// posted notes a vector posted to c at sender clock at: a halted c
// wakes no later than max(own clock, at).
func (c *CPU) posted(at Cycles) {
	s := &c.M.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if at = max(at, c.Clk.Read()); !c.waiting || at >= c.wakeAt {
		return
	}
	c.wakeAt = at
	if !c.enrolled {
		c.wake.Signal()
	} else if s.turn != c {
		c.M.setYield(s.turn) // the holder hands over once past at
	}
}
