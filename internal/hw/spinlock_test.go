package hw

import (
	"strings"
	"testing"
)

// spinTestCPU boots a one-CPU machine with interrupts enabled and a
// timer handler that records the cycle of each delivery.
func spinTestCPU(t *testing.T) (*CPU, *[]Cycles) {
	t.Helper()
	c := testMachine(1).BootCPU()
	var fired []Cycles
	idt := NewIDT("k")
	idt.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(cc *CPU, f *TrapFrame) { fired = append(fired, cc.Now()) }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	return c, &fired
}

// expectPanic runs fn and fails unless it panics with a message
// containing want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one containing %q", r, want)
		}
	}()
	fn()
}

func TestSpinLockDefersTickPastUnlock(t *testing.T) {
	c, fired := spinTestCPU(t)
	var a, b SpinLock
	c.LAPIC.ArmTimer(c.Now()+100, VecTimer)
	if a.Lock(c) {
		t.Fatal("uncontended Lock reported contention")
	}
	b.Lock(c) // nested: the inner Unlock must not unmask
	c.Charge(500)
	b.Unlock(c)
	c.Charge(500)
	if len(*fired) != 0 || c.IF {
		t.Fatalf("tick delivered inside the section (fired=%v, IF=%v)", *fired, c.IF)
	}
	a.Unlock(c)
	if len(*fired) != 0 || !c.IF {
		t.Fatalf("Unlock delivered or left IF clear (fired=%v, IF=%v)", *fired, c.IF)
	}
	unlocked := c.Now()
	c.Charge(1)
	if len(*fired) != 1 || (*fired)[0] < unlocked+1 {
		t.Fatalf("tick not delivered at the first Charge after Unlock: fired=%v, unlocked at %d",
			*fired, unlocked)
	}
}

func TestSpinLockRestoresClearedIF(t *testing.T) {
	c, fired := spinTestCPU(t)
	var l SpinLock
	c.IF = false
	c.LAPIC.Post(nil, VecTimer)
	l.Lock(c)
	l.Unlock(c)
	c.Charge(10)
	if c.IF || len(*fired) != 0 {
		t.Fatalf("Unlock unmasked a CPU that was masked at Lock (IF=%v, fired=%v)", c.IF, *fired)
	}
}

func TestSpinLockIdleUntilPanics(t *testing.T) {
	c, _ := spinTestCPU(t)
	var l SpinLock
	l.Lock(c)
	expectPanic(t, "idles with 1 spinlock(s) held", func() {
		c.IdleUntil(func() bool { return true })
	})
}

func TestSpinLockAsyncDeliveryPanics(t *testing.T) {
	c, _ := spinTestCPU(t)
	var l SpinLock
	l.Lock(c)
	c.IF = true // a section that re-enables interrupts by mistake
	c.LAPIC.Post(nil, VecTimer)
	expectPanic(t, "interrupt 32 delivered with 1 spinlock(s) held", func() { c.Charge(1) })
}

func TestSpinLockAllowsFaultsWhileHeld(t *testing.T) {
	c, _ := spinTestCPU(t)
	gp := 0
	c.IDTR.Set(VecGP, Gate{Present: true, Target: PL0,
		Handler: func(*CPU, *TrapFrame) { gp++ }})
	var l SpinLock
	l.Lock(c)
	c.RaiseGP("test")
	if gp != 1 || c.IF {
		t.Fatalf("#GP under a held lock: handled %d times, IF=%v", gp, c.IF)
	}
	l.Unlock(c)
}

func TestSpinLockNilCPUOnlyBlocks(t *testing.T) {
	c, _ := spinTestCPU(t)
	var l SpinLock
	before := c.Now()
	if l.Lock(nil) {
		t.Fatal("Lock(nil) reported contention")
	}
	if !c.IF || c.Now() != before {
		t.Fatalf("Lock(nil) touched a CPU: IF=%v, clock moved %d", c.IF, c.Now()-before)
	}

	// A CPU waiting on the nil holder spins with its clock advancing,
	// and reports the wait. The clock belongs to the spinner's
	// goroutine, so the spinner detects its own advance: IF stays set
	// while Lock spins, and a timer armed one cycle ahead fires during
	// the spin.
	spun := make(chan struct{})
	c.IDTR.Set(VecTimer, Gate{Present: true, Target: PL0,
		Handler: func(*CPU, *TrapFrame) { close(spun) }})
	c.LAPIC.ArmTimer(before+1, VecTimer)
	done := make(chan bool)
	go func() {
		contended := l.Lock(c)
		l.Unlock(c)
		done <- contended
	}()
	select {
	case <-spun:
	case <-done:
		t.Fatal("Lock(c) acquired a lock held by Lock(nil)")
	}
	l.Unlock(nil)
	if !<-done {
		t.Fatal("Lock(c) on a held lock reported no contention")
	}
}
