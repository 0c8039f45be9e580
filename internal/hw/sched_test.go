package hw

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
)

// stamp is one logged step of a CPU under Machine.Run.
type stamp struct {
	cpu int
	at  Cycles
}

// TestSchedLowestClockRuns: the executing CPU is always the lowest by
// (clock, ID), so a log of (clock, ID) taken before every Charge comes
// out sorted, starting at the lowest start clock with ties to the lower
// ID.
func TestSchedLowestClockRuns(t *testing.T) {
	m := testMachine(3)
	m.CPUs[0].Clk.Advance(300)
	m.CPUs[1].Clk.Advance(100)
	m.CPUs[2].Clk.Advance(100)
	step := []Cycles{70, 50, 50}
	var log []stamp
	m.Run(func(c *CPU) {
		for i := 0; i < 20; i++ {
			log = append(log, stamp{c.ID, c.Now()})
			c.Charge(step[c.ID])
		}
	})
	if len(log) != 60 {
		t.Fatalf("%d steps logged, want 60", len(log))
	}
	if log[0] != (stamp{1, 100}) {
		t.Fatalf("first step %+v, want cpu1 at 100 (tie goes to the lower ID)", log[0])
	}
	if !slices.IsSortedFunc(log, func(a, b stamp) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.cpu, b.cpu))
	}) {
		t.Fatalf("a CPU ran while another had a lower (clock, ID): %v", log)
	}
}

// TestSchedSpinLockContentionDeterministic: two CPUs contending one
// SpinLock acquire it in the same order and end on the same clocks on
// every run, whatever the host's parallelism.
func TestSchedSpinLockContentionDeterministic(t *testing.T) {
	type result struct {
		order     []int
		clocks    [2]Cycles
		contended int
	}
	once := func() result {
		m := testMachine(2)
		var l SpinLock
		var r result
		hold := []Cycles{500, 300}
		think := []Cycles{100, 200}
		m.Run(func(c *CPU) {
			for i := 0; i < 50; i++ {
				if l.Lock(c) {
					r.contended++
				}
				r.order = append(r.order, c.ID)
				c.Charge(hold[c.ID])
				l.Unlock(c)
				c.Charge(think[c.ID])
			}
		})
		r.clocks = [2]Cycles{m.CPUs[0].Now(), m.CPUs[1].Now()}
		return r
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want result
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			got := once()
			if want.order == nil {
				want = got
				if want.contended == 0 {
					t.Fatal("no acquisition was contended; the test exercises nothing")
				}
				continue
			}
			if !slices.Equal(got.order, want.order) || got.clocks != want.clocks ||
				got.contended != want.contended {
				t.Fatalf("GOMAXPROCS=%d run %d: order %v clocks %v contended %d; first run %v %v %d",
					procs, i, got.order, got.clocks, got.contended,
					want.order, want.clocks, want.contended)
			}
		}
	}
}

// idleCPU gives c a kernel IDT whose gate for vector sets *fired, and
// enables its interrupts.
func idleCPU(c *CPU, vector int, fired *bool) {
	idt := NewIDT("k")
	idt.Set(vector, Gate{Present: true, Target: PL0,
		Handler: func(*CPU, *TrapFrame) { *fired = true }})
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
}

// TestSchedHaltWakesAtTimerDeadline: a halted CPU wakes exactly at its
// timer deadline, once the busy CPU's clock has passed it.
func TestSchedHaltWakesAtTimerDeadline(t *testing.T) {
	m := testMachine(2)
	busy, idle := m.CPUs[0], m.CPUs[1]
	fired := false
	idleCPU(idle, VecTimer, &fired)
	start := idle.Now()
	deadline := start + 10_000
	idle.LAPIC.ArmTimer(deadline, VecTimer)
	var busyAtWake Cycles
	m.Run(func(c *CPU) {
		if c == idle {
			c.IdleUntil(func() bool { return fired })
			busyAtWake = busy.Now()
			return
		}
		for c.Now() < 50_000 {
			c.Charge(1_000)
		}
	})
	if got := idle.Stats.IdleCycles; got != deadline-start {
		t.Fatalf("idle for %d cycles, want exactly %d (to the deadline)", got, deadline-start)
	}
	// The busy CPU (lower ID) keeps the turn until its clock passes the
	// deadline: it is at the first 1,000-cycle step beyond it.
	if want := (deadline/1_000 + 1) * 1_000; busyAtWake != want {
		t.Fatalf("busy CPU at %d when the idle one woke, want %d", busyAtWake, want)
	}
}

// TestSchedPostWakesAtSenderClock: a post stamped with the sender's
// clock T wakes a halted CPU at max(own clock, T).
func TestSchedPostWakesAtSenderClock(t *testing.T) {
	for _, tc := range []struct {
		name      string
		own, send Cycles
	}{
		{"sender ahead", 1_000, 5_000},
		{"receiver ahead", 8_000, 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(2)
			idle := m.CPUs[1]
			idle.Clk.Advance(tc.own)
			fired := false
			idleCPU(idle, VecReschedIPI, &fired)
			own := idle.Now()
			m.Run(func(c *CPU) {
				if c == idle {
					c.IdleUntil(func() bool { return fired })
					return
				}
				for c.Now() < tc.send {
					c.Charge(500)
				}
				idle.LAPIC.Post(c, VecReschedIPI)
				for c.Now() < 20_000 {
					c.Charge(500)
				}
			})
			if want := max(own, tc.send) - own; idle.Stats.IdleCycles != want {
				t.Fatalf("woke after %d idle cycles from %d, want %d (to max(own, %d))",
					idle.Stats.IdleCycles, own, want, tc.send)
			}
		})
	}
}

// TestQuietFalseAtHandOver: under Machine.Run a run that would take the
// clock to the turn holder's hand-over point is not quiet, and a run
// that stops one cycle short is. Both CPUs start at 0: cpu0 holds the
// turn and hands it over at 1 (it wins the tie), and cpu1, once it has
// the turn at 0 while cpu0 sits at 10, hands it back at 10. Once cpu1
// has left the schedule, cpu0 never hands over.
func TestQuietFalseAtHandOver(t *testing.T) {
	m := testMachine(2)
	got := map[string]bool{}
	m.Run(func(c *CPU) {
		if c.ID == 1 {
			got["cpu1 9"], got["cpu1 10"] = c.Quiet(9), c.Quiet(10)
			return
		}
		got["cpu0 0"], got["cpu0 1"] = c.Quiet(0), c.Quiet(1)
		c.Charge(10)
		got["cpu0 alone"] = c.Quiet(1 << 40)
	})
	want := map[string]bool{"cpu0 0": true, "cpu0 1": false,
		"cpu1 9": true, "cpu1 10": false, "cpu0 alone": true}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Quiet (%s) = %v, want %v", k, got[k], w)
		}
	}
}
