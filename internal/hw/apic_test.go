package hw

import "testing"

// delivery is one interrupt as the handler saw it.
type delivery struct {
	vec int
	at  Cycles
}

// pollVecs are the vectors the poll-word tests post; the timer uses
// VecTimer, which none of them is, so a delivery names its source.
var pollVecs = [...]int{VecDisk, VecNIC, VecReschedIPI}

// pollRig boots a one-CPU machine with interrupts enabled whose IDT
// records every timer and pollVecs delivery as (vector, cycle).
func pollRig() (*CPU, *[]delivery) {
	c := testMachine(1).BootCPU()
	var got []delivery
	rec := Gate{Present: true, Target: PL0, Handler: func(cc *CPU, f *TrapFrame) {
		got = append(got, delivery{f.Vector, cc.Now()})
	}}
	idt := NewIDT("k")
	idt.Set(VecTimer, rec)
	for _, v := range pollVecs {
		idt.Set(v, rec)
	}
	c.Lgdt(NewGDT("k", PL0))
	c.Lidt(idt)
	c.Sti()
	return c, &got
}

// sender is a CPU whose clock reads at: a poster on another machine.
func sender(at Cycles) *CPU {
	s := &CPU{Clk: NewClock(DefaultHz)}
	s.Clk.Advance(at)
	return s
}

// refPoll is PollInterrupts without the poll word: it takes the
// LAPIC's lock for the timer and again for the queue on every call.
func refPoll(c *CPU) {
	if !c.IF || c.intrDepth > 0 {
		return
	}
	if v, _, ok := c.LAPIC.timerDue(c.Clk.Read()); ok {
		c.deliver(v, &TrapFrame{Vector: v})
		return
	}
	if v, _, ok := c.LAPIC.take(); ok {
		c.deliver(v, &TrapFrame{Vector: v})
	}
}

func TestPostStampedAheadDeliveredAtNextCharge(t *testing.T) {
	c, got := pollRig()
	now := c.Now()
	c.LAPIC.Post(sender(now+1_000_000), VecDisk)
	c.Charge(1)
	if len(*got) != 1 || (*got)[0] != (delivery{VecDisk, now + 1 + c.M.Costs.IRQDeliver}) {
		t.Fatalf("a post stamped %d cycles ahead delivered %v; want it at the next Charge, cycle %d",
			1_000_000, *got, now+1+c.M.Costs.IRQDeliver)
	}
}

func TestLAPICQueueReusesStorage(t *testing.T) {
	c := testMachine(1).BootCPU()
	l := c.LAPIC
	for _, backlog := range []int{0, 3} {
		for range backlog {
			l.Post(nil, VecDisk)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			l.Post(nil, VecDisk)
			if _, _, ok := l.take(); !ok {
				t.Fatal("take found nothing after a Post")
			}
		})
		if allocs != 0 {
			t.Fatalf("Post/take with %d queued: %v allocs per pair, want 0", backlog, allocs)
		}
	}
}

// TestQuietReadsPollWord: outside Machine.Run only interrupts end a
// quiet run. With IF set a run is quiet while it stops short of the
// timer's deadline or of a pending vector (due now); with IF clear, or
// inside a handler, every run is.
func TestQuietReadsPollWord(t *testing.T) {
	c, _ := pollRig()
	now := c.Now()
	if !c.Quiet(1 << 40) {
		t.Fatal("a run with nothing armed or pending is not quiet")
	}
	c.LAPIC.ArmTimer(now+100, VecTimer)
	if !c.Quiet(99) || c.Quiet(100) {
		t.Fatalf("timer at +100: Quiet(99) = %v, Quiet(100) = %v; want true, false",
			c.Quiet(99), c.Quiet(100))
	}
	c.IF = false
	if !c.Quiet(100) {
		t.Fatal("with IF clear a run reaching the deadline is not quiet")
	}
	c.IF = true
	c.LAPIC.DisarmTimer()
	c.LAPIC.Post(nil, VecDisk)
	if c.Quiet(0) {
		t.Fatal("a run with a vector pending is quiet")
	}
	c.intrDepth++
	if !c.Quiet(100) {
		t.Fatal("inside a handler a run with a vector pending is not quiet")
	}
	c.intrDepth--
}

// FuzzLAPICPollWord decodes its input into Post (stamped at, ahead of
// and behind the owner), ArmTimer, DisarmTimer, Charge, IF flips and
// quiet runs on two lockstep one-CPU machines. One polls through
// Charge and its poll word; the other advances its clock and runs
// refPoll. A quiet run is k charges of cost each: the first machine
// charges cost*k once when Quiet says the run is quiet and k times
// otherwise, the reference always k times. After every op the poll
// word must equal a model (0 while anything is pending, else the armed
// deadline, else never), and both machines must have delivered the
// same (vector, cycle) sequence.
func FuzzLAPICPollWord(f *testing.F) {
	// Post then Charge (TestInterruptDelivery).
	f.Add([]byte{0, 0, 5, 1})
	// A masked post survives until sti (TestInterruptMaskedWhileIFClear).
	f.Add([]byte{6, 0, 0, 1, 5, 1, 6, 0, 5, 1})
	// The timer fires at its deadline, not before (TestLAPICTimerFiresAtDeadline).
	f.Add([]byte{3, 125, 5, 62, 5, 75})
	// Posts ahead and behind the owner, a timer re-armed and disarmed.
	f.Add([]byte{1, 200, 2, 3, 3, 4, 4, 0, 3, 1, 5, 0, 5, 0, 5, 9, 0, 2, 5, 0})
	// Quiet runs short of, reaching and past a timer and a post.
	f.Add([]byte{3, 40, 7, 0x63, 7, 0x25, 0, 1, 7, 0x11, 6, 0, 3, 2, 7, 0xf4, 6, 0, 7, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		a, gotA := pollRig()
		b, gotB := pollRig()
		var queue []int // vectors posted to a and not yet delivered
		armed, deadline := false, Cycles(0)
		seen := 0
		for i := 0; i+1 < len(ops); i += 2 {
			now, arg := a.Now(), Cycles(ops[i+1])
			vec := pollVecs[int(ops[i+1])%len(pollVecs)]
			switch op := ops[i] % 8; op {
			case 0, 1, 2:
				var from *CPU // op 0 stamps with the owner's clock
				switch op {
				case 1:
					from = sender(now + arg*8)
				case 2:
					from = sender(now - min(now, arg*8))
				}
				a.LAPIC.Post(from, vec)
				b.LAPIC.Post(from, vec)
				queue = append(queue, vec)
			case 3:
				armed, deadline = true, now+arg*8
				a.LAPIC.ArmTimer(deadline, VecTimer)
				b.LAPIC.ArmTimer(deadline, VecTimer)
			case 4:
				a.LAPIC.DisarmTimer()
				b.LAPIC.DisarmTimer()
				armed = false
			case 5:
				a.Charge(arg * 8)
				b.Clk.Advance(arg * 8)
				refPoll(b)
			case 6:
				a.IF, b.IF = !a.IF, !b.IF
			case 7:
				cost, k := (arg&15)*8, int(arg>>4)+1
				if a.Quiet(cost * Cycles(k)) {
					a.Charge(cost * Cycles(k))
				} else {
					for range k {
						a.Charge(cost)
					}
				}
				for range k {
					b.Clk.Advance(cost)
					refPoll(b)
				}
			}

			if len(*gotA) != len(*gotB) {
				t.Fatalf("op %d: Charge delivered %v, the reference poll %v", i/2, *gotA, *gotB)
			}
			for j, d := range (*gotA)[seen:] {
				if d != (*gotB)[seen+j] {
					t.Fatalf("op %d: Charge delivered %v, the reference poll %v", i/2, *gotA, *gotB)
				}
				switch {
				case d.vec == VecTimer:
					armed = false
				case len(queue) == 0 || queue[0] != d.vec:
					t.Fatalf("op %d: delivered vector %d, model queue %v", i/2, d.vec, queue)
				default:
					queue = queue[1:]
				}
			}
			seen = len(*gotA)
			if a.Now() != b.Now() {
				t.Fatalf("op %d: clocks diverged: %d vs %d", i/2, a.Now(), b.Now())
			}

			want := never
			switch {
			case len(queue) > 0:
				want = 0
			case armed:
				want = deadline
			}
			if got := a.LAPIC.due.Load(); got != want {
				t.Fatalf("op %d: poll word %d, model %d (queue %v, armed %v at %d)",
					i/2, got, want, queue, armed, deadline)
			}
		}
	})
}
