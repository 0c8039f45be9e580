package hw

import "sync"

// SpinLock is spin_lock_irqsave: a host lock that a critical section
// may hold across Charge. Charge delivers interrupts, so a tick landing
// under a plain sync.Mutex can run a scheduler slice that re-enters the
// lock and hangs; a SpinLock masks the holder's interrupts instead.
// Waiters spin with their clocks advancing, handing the turn to a
// descheduled holder. A nil CPU (host-side code only: on a CPU under
// Machine.Run it would block the turn) neither charges nor masks.
type SpinLock struct {
	mu     sync.Mutex
	heldIF bool // the holder's interrupt flag, restored by Unlock
}

// Lock acquires l on c and clears c.IF, reporting whether it had to wait.
func (l *SpinLock) Lock(c *CPU) (contended bool) {
	if c == nil {
		l.mu.Lock()
		return false
	}
	for !l.mu.TryLock() {
		contended = true
		c.Charge(60) // one failed attempt; hands the turn to the holder
	}
	l.heldIF, c.IF = c.IF, false
	c.spinHeld++
	return contended
}

// Unlock releases l and restores c.IF. A vector that fell due while l
// was held is delivered at c's next Charge.
func (l *SpinLock) Unlock(c *CPU) {
	if c == nil {
		l.mu.Unlock()
		return
	}
	restore := l.heldIF
	c.spinHeld--
	l.mu.Unlock()
	c.IF = restore
}
