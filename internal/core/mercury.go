package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/vo"
	"repro/internal/xen"
)

// Mode is the operating system's execution mode.
type Mode int32

// Execution modes (§6): native = bare hardware at PL0; partial-virtual =
// on the VMM as the (privileged) driver domain, able to host other
// domains; full-virtual = on the VMM as an unprivileged, migratable
// domain.
const (
	ModeNative Mode = iota
	ModePartialVirtual
	ModeFullVirtual
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModePartialVirtual:
		return "partial-virtual"
	case ModeFullVirtual:
		return "full-virtual"
	}
	return fmt.Sprintf("mode%d", int32(m))
}

// TrackingPolicy selects how the VMM's frame accounting is kept valid
// across native-mode execution (§5.1.2).
type TrackingPolicy int

const (
	// TrackRecompute re-computes and synchronizes frame info during the
	// mode switch — the paper's preferred approach (no native overhead,
	// longer attach).
	TrackRecompute TrackingPolicy = iota
	// TrackActive mirrors every native page-table store into the VMM's
	// accounting (2–3 % native overhead, faster attach).
	TrackActive
	// TrackJournal keeps the detached frame table's epoch and records
	// native page-table stores in a bounded dirty-frame journal; a
	// re-attach rewinds to the kept epoch and replays only the journaled
	// slots, falling back to the full recompute on ring overflow,
	// structural changes, a spoiled keep, or a first attach. Cheaper
	// native overhead than TrackActive, near-recompute robustness.
	TrackJournal
)

func (p TrackingPolicy) String() string {
	switch p {
	case TrackRecompute:
		return "recompute"
	case TrackActive:
		return "active"
	case TrackJournal:
		return "journal"
	}
	return fmt.Sprintf("policy%d", int(p))
}

// ParseTrackingPolicy is String's inverse.
func ParseTrackingPolicy(s string) (TrackingPolicy, error) {
	for p := TrackRecompute; p <= TrackJournal; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown tracking policy %q (want recompute, active or journal)", s)
}

// Stats records mode-switch behaviour. New adopts the *obs.Counter
// fields into the installed collector's series named beside them;
// they are pointers so the collector retains the counters and not the
// system.
type Stats struct {
	Attaches        *obs.Counter  // core/attaches_total
	Detaches        *obs.Counter  // core/detaches_total
	Deferred        *obs.Counter  // core/switch_deferred_total: switches postponed by a non-zero refcount
	FailedSwitches  *obs.Counter  // core/switch_failed_total: switches rolled back (failure-resistant path)
	StarvedSwitches *obs.Counter  // core/switch_starved_total: switches abandoned after MaxDeferrals retries
	FixedFrames     atomic.Uint64 // saved frames patched by the selector stub
	LastAttachCyc   atomic.Uint64
	LastDetachCyc   atomic.Uint64
}

// Mercury is one self-virtualizable system: a guest kernel plus its
// pre-cached VMM and the two virtualization-object instances.
type Mercury struct {
	M   *hw.Machine
	K   *guest.Kernel
	VMM *xen.VMM
	Dom *xen.Domain // the kernel's standing domain identity

	NativeVO  *vo.Native
	VirtualVO *vo.Virtual

	Policy TrackingPolicy

	// NodeID attributes this system's flight-recorder events to a fleet
	// node; -1 (the default) marks a standalone system. The fleet
	// controller sets it right after boot.
	NodeID int32

	mode atomic.Int32

	// pending is the requested transition, consumed by the interrupt
	// handler.
	pending atomic.Int32 // -1 none, else target Mode

	// retryTicks is the base deferred-switch retry interval in cycles
	// (the paper's example uses 10 ms — one 100 Hz tick). Successive
	// deferrals of one request back off exponentially from this base,
	// capped at BackoffCapMultiple times it, with deterministic jitter
	// drawn from backoffRng.
	retryTicks hw.Cycles

	// backoffRng is the seeded SplitMix64 state feeding retry jitter.
	// Atomic only because consecutive deferrals may execute on
	// different CPU-driver goroutines; the ISR itself never runs
	// concurrently with itself.
	backoffRng atomic.Uint64

	// stepObs, when set, receives every atomic protocol step
	// (protocol.go); nil in production.
	stepObs StepObserver

	// maxDeferrals bounds how many times one pending switch may be
	// deferred by a non-draining refcount before the request is
	// abandoned; deferrals counts them for the current request.
	maxDeferrals int32
	deferrals    atomic.Int32

	smp rendezvousState

	// quiesceMu guards quiescers: callbacks a datapath registers to
	// drain its in-flight work before a detach tears the VMM out from
	// under it (the §6.3 driver-domain quiesce contract).
	quiesceMu sync.Mutex
	quiescers []detachQuiescer

	// lastErr records the most recent switch failure (nil after a
	// successful switch).
	lastErr atomic.Pointer[switchError]

	// obsCache holds pre-resolved registry handles for the installed
	// collector so the switch path skips registry lookups.
	obsCache atomic.Pointer[coreObs]

	// The switch's reused buffers: the live roots an attach recomputes,
	// the sleeping processes a selector fixup walks, the trap gates and
	// the multicall an attach rebinds with. Only the switch ISR uses
	// them, and it never runs concurrently with itself.
	roots    []hw.PFN
	sleeping []*guest.Proc
	gates    []xen.TrapEntry
	rebind   xen.Multicall

	Stats Stats
}

// coreObs caches Mercury's telemetry handles for one collector: the
// histograms and the counters that have no Stats twin.
type coreObs struct {
	col       *obs.Collector
	healings  *obs.Counter
	evacs     *obs.Counter
	attachCyc *obs.Histogram
	detachCyc *obs.Histogram
	events    *obs.EventLog // nil for hand-built collectors without one
}

// tel returns the cached telemetry handles, or nil when no collector
// is installed. The disabled path is a single atomic load.
func (mc *Mercury) tel() *coreObs {
	col := mc.M.Telemetry()
	if col == nil {
		return nil
	}
	h := mc.obsCache.Load()
	if h == nil || h.col != col {
		r := col.Registry
		h = &coreObs{
			col:       col,
			healings:  r.Counter("core", "healings_total"),
			evacs:     r.Counter("core", "evacuations_total"),
			attachCyc: r.Histogram("core", "attach_cycles"),
			detachCyc: r.Histogram("core", "detach_cycles"),
			events:    col.Events,
		}
		mc.obsCache.Store(h)
	}
	return h
}

// event records a flight-recorder entry on the installed collector's
// event log, attributed to this system's node. h may be nil (no
// collector) and h.events may be nil (hand-built collector).
func (mc *Mercury) event(h *coreObs, kind obs.EventKind, ts, a, b uint64) {
	if h == nil || h.events == nil {
		return
	}
	h.events.Record(kind, mc.NodeID, ts, a, b)
}

// telCol returns the collector for span creation, or nil.
func (mc *Mercury) telCol() *obs.Collector {
	if h := mc.tel(); h != nil {
		return h.col
	}
	return nil
}

// switchError boxes an error for atomic storage.
type switchError struct{ err error }

func (mc *Mercury) setLastError(err error) {
	if err == nil {
		mc.lastErr.Store(nil)
		return
	}
	mc.lastErr.Store(&switchError{err: err})
}

// LastSwitchError returns the most recent mode-switch failure, or nil.
// A failed switch is not fatal (§8's failure-resistant switch): the
// system keeps running in its previous mode.
func (mc *Mercury) LastSwitchError() error {
	if e := mc.lastErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// Config assembles a Mercury system.
type Config struct {
	Machine *hw.Machine
	Policy  TrackingPolicy
	// MaxDeferrals bounds how many times one pending mode switch may be
	// re-armed by the §5.1.1 retry timer before the request is abandoned
	// and LastSwitchError reports starvation (default DefaultMaxDeferrals;
	// a non-draining VO refcount would otherwise retry forever).
	MaxDeferrals int
	// LazyMMU enables the kernel's lazy-MMU batching (see
	// guest.Config.LazyMMU): MMU-heavy paths coalesce their sensitive
	// stores into multicalls when the system runs virtualized. Off by
	// default so the Table 1 reproduction measures the per-entry stream.
	LazyMMU bool
}

// DefaultMaxDeferrals is the default retry budget for a deferred switch
// — 100 retries at the 10 ms interval is a full second of a sensitive
// section refusing to drain.
const DefaultMaxDeferrals = 100

// backoffSeed seeds the deterministic jitter on the deferred-switch
// retry backoff: same machine, same retry schedule.
const backoffSeed = 0x6d65726375727931 // "mercury1"

// New builds a complete Mercury system on a fresh machine: the VMM is
// booted (pre-cached) first, then the kernel boots in native mode with
// Mercury's native virtualization object. The kernel starts in
// ModeNative with the VMM inactive in memory.
func New(cfg Config) (*Mercury, error) {
	m := cfg.Machine
	v, err := xen.Boot(m)
	if err != nil {
		return nil, fmt.Errorf("core: pre-caching VMM: %w", err)
	}
	// The running OS's standing domain identity: adopted once at warmup
	// so a switch only touches per-switch state (§4.1).
	dom := v.AdoptDomain("mercury-os", m.Frames, true)

	nat := vo.NewNative(m)
	switch cfg.Policy {
	case TrackActive:
		nat.Track = &vo.Tracker{V: v, D: dom}
	case TrackJournal:
		nat.Journal = v.EnableJournal(xen.DefaultJournalEntries)
	}
	k, err := guest.Boot(m, guest.Config{
		Name:    "mercury-linux",
		VO:      nat,
		Frames:  m.Frames,
		LazyMMU: cfg.LazyMMU,
	})
	if err != nil {
		return nil, fmt.Errorf("core: booting kernel: %w", err)
	}
	mc := &Mercury{
		M: m, K: k, VMM: v, Dom: dom,
		NativeVO:  nat,
		VirtualVO: vo.NewVirtual(v, dom),
		Policy:    cfg.Policy,
		NodeID:    -1,
		Stats: Stats{Attaches: obs.NewCounter(), Detaches: obs.NewCounter(),
			Deferred: obs.NewCounter(), FailedSwitches: obs.NewCounter(),
			StarvedSwitches: obs.NewCounter()},
	}
	if col := m.Telemetry(); col != nil {
		r := col.Registry
		r.RegisterCounter(mc.Stats.Attaches, "core", "attaches_total")
		r.RegisterCounter(mc.Stats.Detaches, "core", "detaches_total")
		r.RegisterCounter(mc.Stats.Deferred, "core", "switch_deferred_total")
		r.RegisterCounter(mc.Stats.FailedSwitches, "core", "switch_failed_total")
		r.RegisterCounter(mc.Stats.StarvedSwitches, "core", "switch_starved_total")
	}
	mc.retryTicks = m.Hz / guest.DefaultHzTicks // 10 ms
	mc.backoffRng.Store(backoffSeed)
	mc.maxDeferrals = int32(cfg.MaxDeferrals)
	if mc.maxDeferrals <= 0 {
		mc.maxDeferrals = DefaultMaxDeferrals
	}
	mc.pending.Store(-1)
	mc.installGates()
	return mc, nil
}

// Mode returns the current execution mode.
func (mc *Mercury) Mode() Mode { return Mode(mc.mode.Load()) }

// installGates registers the self-virtualization interrupt handlers
// (§4.1) in both the kernel IDT (reachable in native mode) and the VMM
// IDT (reachable in virtual mode), plus the SMP rendezvous vector.
func (mc *Mercury) installGates() {
	gate := hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) { mc.modeSwitchISR(c, f) }}
	apGate := hw.Gate{Present: true, Target: hw.PL0,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) { mc.apRendezvousISR(c, f) }}
	mc.K.IDT.Set(hw.VecModeSwitch, gate)
	mc.K.IDT.Set(hw.VecModeSwitchAP, apGate)
	mc.VMM.SetGate(hw.VecModeSwitch, gate)
	mc.VMM.SetGate(hw.VecModeSwitchAP, apGate)
}

// RequestSwitch asks, from CPU c (nil host-side), for a transition to
// the target mode by raising the self-virtualization interrupt on the
// control processor. The switch happens in interrupt context; if
// sensitive code is in flight the handler re-arms itself via a retry
// timer (§5.1.1).
func (mc *Mercury) RequestSwitch(c *hw.CPU, target Mode) error {
	cur := mc.Mode()
	if cur == target {
		return nil
	}
	if !mc.pending.CompareAndSwap(-1, int32(target)) {
		return fmt.Errorf("core: a mode switch is already pending")
	}
	mc.deferrals.Store(0)
	mc.M.BootCPU().LAPIC.Post(c, hw.VecModeSwitch)
	return nil
}

// SwitchSync requests a switch from c and idles until it commits or
// fails. On an SMP machine outside hw.Machine.Run it runs itself under
// one, the other CPUs idling (and taking the §5.4 rendezvous IPI) until
// the switch is done.
func (mc *Mercury) SwitchSync(c *hw.CPU, target Mode) error {
	if len(mc.M.CPUs) > 1 && !mc.M.Running() {
		var err error
		var done atomic.Bool
		mc.M.Run(func(cpu *hw.CPU) {
			if cpu != c {
				cpu.IdleUntil(done.Load)
				return
			}
			err = mc.SwitchSync(c, target)
			done.Store(true)
			c.WakeHalted(hw.VecReschedIPI, true)
		})
		return err
	}
	failedBefore := mc.Stats.FailedSwitches.Load()
	err := mc.RequestSwitch(c, target)
	if err == nil && mc.Mode() != target {
		c.Charge(50) // the request
		// A failed (rolled-back or starved) switch clears the request
		// without changing the mode; a deferred one keeps it pending.
		c.IdleUntil(func() bool {
			return mc.Mode() == target || mc.pending.Load() == -1 && mc.LastSwitchError() != nil
		})
		if mc.Mode() != target {
			err = mc.LastSwitchError()
		}
	}
	if err != nil && mc.Stats.FailedSwitches.Load() > failedBefore {
		// A rolled-back switch must leave the whole system
		// quiescent-clean in its previous mode — verify, don't assume.
		// Starved switches are exempt: the sensitive section that
		// starved them legitimately still holds the refcount, so the
		// quiescence oracle cannot run until the holder drains.
		if verr := mc.CheckInvariants(c); verr != nil {
			err = fmt.Errorf("%w; post-rollback invariants: %v", err, verr)
		}
	}
	return err
}

// detachQuiescer is one named quiesce callback.
type detachQuiescer struct {
	name string
	fn   func(c *hw.CPU) error
}

// RegisterDetachQuiescer installs a callback that detach runs — before
// the hosted-domains check — to drain in-flight work that depends on
// the VMM: an I/O datapath drains its rings, ends its grants, and
// destroys the client domains it was serving. A quiescer that errors
// aborts the switch (the system stays virtual, failure-resistant).
// Registering the same name again replaces the previous callback.
func (mc *Mercury) RegisterDetachQuiescer(name string, fn func(c *hw.CPU) error) {
	mc.quiesceMu.Lock()
	defer mc.quiesceMu.Unlock()
	for i := range mc.quiescers {
		if mc.quiescers[i].name == name {
			mc.quiescers[i].fn = fn
			return
		}
	}
	mc.quiescers = append(mc.quiescers, detachQuiescer{name: name, fn: fn})
}

// UnregisterDetachQuiescer removes a quiescer by name (no-op if absent).
func (mc *Mercury) UnregisterDetachQuiescer(name string) {
	mc.quiesceMu.Lock()
	defer mc.quiesceMu.Unlock()
	for i := range mc.quiescers {
		if mc.quiescers[i].name == name {
			mc.quiescers = append(mc.quiescers[:i], mc.quiescers[i+1:]...)
			return
		}
	}
}

// runDetachQuiescers invokes every registered quiescer in registration
// order, stopping at the first error.
func (mc *Mercury) runDetachQuiescers(c *hw.CPU) error {
	mc.quiesceMu.Lock()
	qs := make([]detachQuiescer, len(mc.quiescers))
	copy(qs, mc.quiescers)
	mc.quiesceMu.Unlock()
	for _, q := range qs {
		if err := q.fn(c); err != nil {
			return fmt.Errorf("quiesce %s: %w", q.name, err)
		}
	}
	return nil
}

// HostedDomains returns the unprivileged domains currently hosted (only
// meaningful in partial-virtual mode).
func (mc *Mercury) HostedDomains() []*xen.Domain {
	var out []*xen.Domain
	for _, d := range mc.VMM.Domains {
		if d != mc.Dom {
			out = append(out, d)
		}
	}
	return out
}
