package hw

import (
	"sync"
	"sync/atomic"
)

// LAPIC is a per-CPU local interrupt controller. Other CPUs (and devices,
// via the Machine's IO-APIC routing) post vectors into it; the owning CPU
// drains pending vectors at instruction boundaries when interrupts are
// enabled. Mercury's SMP mode-switch protocol (§5.4) is built on the IPI
// path: the control processor posts VecModeSwitchAP to every other core
// and the cores rendezvous on shared counters.
type LAPIC struct {
	mu sync.Mutex
	// pending[head:] is the FIFO of pending vectors. An emptied queue
	// restarts at its array's base, and a full one compacts before it
	// grows, so a steady post/take stream reuses one array.
	pending []pendingVec
	head    int

	// due is the poll word the owner reads without mu on every Charge:
	// 0 while any vector is pending, else the armed timer's deadline,
	// else never. Every method that changes the queue or the timer
	// rewrites it under mu (setDue).
	due atomic.Uint64

	// cpu is the owning CPU, woken by a post while it is halted.
	cpu *CPU

	// One-shot local timer: fires vector timerVec when the owning CPU's
	// clock reaches deadline.
	timerArmed    bool
	timerDeadline Cycles
	timerVec      int

	IPIsReceived atomic.Uint64

	// dropNext, when armed, makes the LAPIC silently discard the next
	// posted vector — the "dropped IPI" hardware fault for dependability
	// campaigns. Dropped counts every vector lost this way.
	dropNext atomic.Bool
	dropped  atomic.Uint64
}

// pendingVec is one queued vector plus the sender's TSC reading at its
// post: the earliest time the owner may take it, and the start point of
// the interrupt-delivery latency measurement.
type pendingVec struct {
	vec    int
	posted Cycles
}

// Post queues vector for the owning CPU, stamped with the sender's
// clock (the owner's for a nil, host-side or cross-machine, sender); a
// halted owner wakes at the later of its clock and the stamp. Safe from
// any goroutine: the cores' TSCs share one timebase.
func (l *LAPIC) Post(from *CPU, vector int) {
	if l.dropNext.CompareAndSwap(true, false) {
		l.dropped.Add(1)
		return
	}
	if from == nil {
		from = l.cpu
	}
	ts := from.Clk.Read()
	l.mu.Lock()
	if l.head > 0 && len(l.pending) == cap(l.pending) {
		n := copy(l.pending, l.pending[l.head:])
		l.pending, l.head = l.pending[:n], 0
	}
	l.pending = append(l.pending, pendingVec{vec: vector, posted: ts})
	l.setDue()
	l.mu.Unlock()
	l.cpu.posted(ts)
}

// ArmDropNext makes the LAPIC discard the next posted vector (fault
// injection: a lost IPI).
func (l *LAPIC) ArmDropNext() { l.dropNext.Store(true) }

// DroppedCount returns how many vectors this LAPIC has discarded.
func (l *LAPIC) DroppedCount() uint64 { return l.dropped.Load() }

// ClearDropped resets the dropped-vector count (and any still-armed
// drop), returning the count cleared.
func (l *LAPIC) ClearDropped() uint64 {
	l.dropNext.Store(false)
	return l.dropped.Swap(0)
}

// setDue rewrites the poll word from the queue and the timer. Callers
// hold mu.
func (l *LAPIC) setDue() {
	switch {
	case l.head < len(l.pending):
		l.due.Store(0)
	case l.timerArmed:
		l.due.Store(l.timerDeadline)
	default:
		l.due.Store(never)
	}
}

// take removes and returns the next pending vector plus its post stamp.
// The owner takes a pending vector at its next poll whatever the stamp:
// one posted with a stamp ahead of the owner's clock is delivered at the
// owner's next Charge, not when the owner's clock reaches the stamp.
// Only a halted owner waits for the stamp (nextEvent).
func (l *LAPIC) take() (vec int, posted Cycles, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.pending) {
		return 0, 0, false
	}
	p := l.pending[l.head]
	l.head++
	if l.head == len(l.pending) {
		l.pending, l.head = l.pending[:0], 0
	}
	l.setDue()
	return p.vec, p.posted, true
}

// nextEvent is when an owner halted at now can next take something:
// its timer deadline or (if it takes interrupts) its earliest post, no
// earlier than now; never if neither. A masked owner waits for a post.
func (l *LAPIC) nextEvent(now Cycles, takes bool) Cycles {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := never
	if l.timerArmed && (takes || l.timerDeadline > now) {
		at = l.timerDeadline
	}
	for i := l.head; takes && i < len(l.pending); i++ {
		at = min(at, l.pending[i].posted)
	}
	return max(at, now)
}

// ArmTimer programs the one-shot local timer.
func (l *LAPIC) ArmTimer(deadline Cycles, vector int) {
	l.mu.Lock()
	l.timerArmed = true
	l.timerDeadline = deadline
	l.timerVec = vector
	l.setDue()
	l.mu.Unlock()
}

// DisarmTimer cancels the local timer.
func (l *LAPIC) DisarmTimer() {
	l.mu.Lock()
	l.timerArmed = false
	l.setDue()
	l.mu.Unlock()
}

// timerDue pops the timer vector if the deadline has passed, returning
// the armed deadline so delivery jitter (now − deadline) is observable.
func (l *LAPIC) timerDue(now Cycles) (vec int, deadline Cycles, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.timerArmed && now >= l.timerDeadline {
		l.timerArmed = false
		l.setDue()
		return l.timerVec, l.timerDeadline, true
	}
	return 0, 0, false
}

// NextTimerDeadline returns the armed deadline, if any.
func (l *LAPIC) NextTimerDeadline() (Cycles, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.timerDeadline, l.timerArmed
}

// IOAPIC routes device interrupt lines to CPUs. Devices raise a line; the
// IOAPIC posts the configured vector to the configured CPU's LAPIC.
type IOAPIC struct {
	mu     sync.Mutex
	routes map[int]ioRoute // line -> route
	m      *Machine
}

type ioRoute struct {
	cpu    int
	vector int
	masked bool
}

// NewIOAPIC builds the I/O interrupt controller for m.
func NewIOAPIC(m *Machine) *IOAPIC {
	return &IOAPIC{routes: make(map[int]ioRoute), m: m}
}

// Route binds a device line to (cpu, vector). Rebinding interrupt routes
// is part of Mercury's state transfer: in native mode lines target the
// guest's vectors directly, in virtual mode they target the VMM's.
func (io *IOAPIC) Route(line, cpu, vector int) {
	io.mu.Lock()
	io.routes[line] = ioRoute{cpu: cpu, vector: vector}
	io.mu.Unlock()
}

// Mask disables delivery for a line.
func (io *IOAPIC) Mask(line int, masked bool) {
	io.mu.Lock()
	if r, ok := io.routes[line]; ok {
		r.masked = masked
		io.routes[line] = r
	}
	io.mu.Unlock()
}

// Raise signals a device interrupt line for from, the CPU whose work
// completed (nil for a sender on another machine).
func (io *IOAPIC) Raise(from *CPU, line int) {
	io.mu.Lock()
	r, ok := io.routes[line]
	io.mu.Unlock()
	if !ok || r.masked {
		return
	}
	if r.cpu >= 0 && r.cpu < len(io.m.CPUs) {
		io.m.CPUs[r.cpu].LAPIC.Post(from, r.vector)
	}
}

// Routes returns a copy of the current routing table; Mercury's state
// transfer reads it to rebind lines across a mode switch.
func (io *IOAPIC) Routes() map[int][2]int {
	io.mu.Lock()
	defer io.mu.Unlock()
	out := make(map[int][2]int, len(io.routes))
	for line, r := range io.routes {
		out[line] = [2]int{r.cpu, r.vector}
	}
	return out
}
