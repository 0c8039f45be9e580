package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// Layer is the architectural layer a fault lives in.
type Layer string

// Fault layers.
const (
	LayerGuest Layer = "guest"
	LayerVMM   Layer = "vmm"
	LayerHW    Layer = "hw"
)

// Detector is the mechanism expected to catch a fault.
type Detector string

// Detectors.
const (
	DetectInvariant Detector = "invariant"
	DetectSensor    Detector = "sensor"
	DetectSwitch    Detector = "switch-validation"
	// DetectTxn: the migration transaction (§6.3) rejects the fault —
	// the live migration aborts, every journaled side effect rolls
	// back, and a retry commits once the fault is removed.
	DetectTxn Detector = "txn-rollback"
	// DetectStore: the snapshot cache's own defenses catch the fault —
	// content verification, the refcount audit, or the fork
	// transaction's rollback (internal/fork).
	DetectStore Detector = "store-audit"
	// DetectIO: the split-device datapath's own defenses catch the
	// fault — the backend's ring-progress audit or the ring's poll-side
	// doorbell recovery accounting (internal/xen's multi-queue rings).
	DetectIO Detector = "io-audit"
)

// Ctx is the environment an injector runs in: the system under test,
// the driver process (whose address space guest faults target), the
// CPU it runs on, the campaign's seeded random source, and the armed
// migration fault injection (hardware-layer copy/link faults).
type Ctx struct {
	MC      *core.Mercury
	P       *guest.Proc
	C       *hw.CPU
	Rand    *rand.Rand
	Migrate *migrate.FaultInjection
	// Fork is the snapshot-cache node store faults attack (nil unless
	// the campaign configured one).
	Fork *ForkEnv
	// IO is the split-device datapath node the I/O faults attack (nil
	// unless the campaign configured one).
	IO *IOEnv
}

// Active is one injected fault: how to remove it, and — for sensor-
// detected faults — the sensor expected to trip and the repair the
// healing path should apply.
type Active struct {
	Undo   func()
	Sensor *core.Sensor
	Repair core.Repair
}

// Fault is one registered fault class.
type Fault struct {
	Name     string
	Layer    Layer
	Detector Detector
	Inject   func(ctx *Ctx) (*Active, error)
}

// holder is the fault-injection hold on a virtualization object's
// refcount (vo.Hold/Unhold, present on the Mercury objects).
type holder interface {
	Hold()
	Unhold()
}

// Catalog returns the registered fault classes for mc, in a fixed
// order. Faults that only make sense under the recompute tracking
// policy (attach-time validation) are omitted under active tracking.
func Catalog(mc *core.Mercury) []*Fault {
	faults := []*Fault{
		{
			// A writable mapping of a live page-table page: the state
			// attach-time frame validation must reject (§5.1.2, §8).
			Name: "pagetable-corruption", Layer: LayerGuest, Detector: DetectSwitch,
			Inject: func(ctx *Ctx) (*Active, error) {
				undo, err := ctx.P.AS.CorruptPageTableMappingPick(ctx.Rand.Intn)
				if err != nil {
					return nil, err
				}
				return &Active{Undo: undo}, nil
			},
		},
		{
			// A dead process on the run queue: the §6.2 healing example.
			Name: "runqueue-corruption", Layer: LayerGuest, Detector: DetectSensor,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.MC.K.InjectRunqueueCorruption(ctx.C)
				s := core.RunqueueSensor()
				return &Active{
					Undo:   func() { ctx.MC.K.RepairRunqueue(ctx.C) },
					Sensor: &s,
					Repair: core.RunqueueRepair(),
				}, nil
			},
		},
		{
			// Cached selectors at a privilege level no mode uses: what
			// the §5.1.2 fixup stub exists to prevent.
			Name: "stale-selector", Layer: LayerGuest, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				undo, err := ctx.MC.K.InjectStaleSelector(ctx.C)
				if err != nil {
					return nil, err
				}
				return &Active{Undo: func() { undo(ctx.P.CPU()) }}, nil
			},
		},
		{
			// A clobbered trap gate: the kernel would silently lose its
			// NIC interrupts.
			Name: "idt-gate-clobber", Layer: LayerGuest, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				k := ctx.MC.K
				saved := k.IDT.Get(hw.VecNIC)
				k.IDT.Set(hw.VecNIC, hw.Gate{})
				return &Active{Undo: func() { k.IDT.Set(hw.VecNIC, saved) }}, nil
			},
		},
		{
			// A lost timer: every LAPIC timer disarmed, so the OS would
			// never tick again.
			Name: "timer-loss", Layer: LayerGuest, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				for _, cpu := range ctx.MC.M.CPUs {
					cpu.LAPIC.DisarmTimer()
				}
				return &Active{Undo: func() { ctx.MC.K.RearmTick(ctx.C) }}, nil
			},
		},
		{
			// A sensitive section that never drains (a wedged driver):
			// the switch defers until the retry budget reports
			// starvation instead of retrying forever.
			Name: "vo-stuck-op", Layer: LayerGuest, Detector: DetectSwitch,
			Inject: func(ctx *Ctx) (*Active, error) {
				h, ok := ctx.MC.K.VO().(holder)
				if !ok {
					return nil, fmt.Errorf("chaos: VO %q has no refcount to hold", ctx.MC.K.VO().Name())
				}
				h.Hold()
				return &Active{Undo: h.Unhold}, nil
			},
		},
		{
			// A transiently failing pin hypercall mid-attach: the
			// failure-resistant switch must roll back (§8).
			Name: "hypercall-transient", Layer: LayerVMM, Detector: DetectSwitch,
			Inject: func(ctx *Ctx) (*Active, error) {
				ctx.MC.VMM.InjectPinFailures(1)
				return &Active{Undo: func() { ctx.MC.VMM.InjectPinFailures(0) }}, nil
			},
		},
		{
			// A bit-flip in the frame accounting array: a seeded victim
			// frame's entry violates the type-system invariants.
			Name: "frametable-bitflip", Layer: LayerVMM, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				ft := ctx.MC.VMM.FT
				pfn := hw.PFN(1 + ctx.Rand.Intn(ft.NumFrames()-1))
				saved := ft.Get(pfn)
				bad := saved
				bad.Pinned = true
				bad.TypeCount = 0
				ft.Set(pfn, bad)
				return &Active{Undo: func() { ft.Set(pfn, saved) }}, nil
			},
		},
		{
			// The standing domain flips out of DomRunning: the engine's
			// domain bookkeeping is out of sync.
			Name: "domain-state", Layer: LayerVMM, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				d := ctx.MC.Dom
				saved := d.State
				d.State = xen.DomPaused
				return &Active{Undo: func() { d.State = saved }}, nil
			},
		},
		{
			// A hardware monitor reads outside the healthy envelope:
			// the §6.5 failure predictor must notice.
			Name: "sensor-spike", Layer: LayerHW, Detector: DetectSensor,
			Inject: func(ctx *Ctx) (*Active, error) {
				bank := ctx.MC.M.Sensors
				spikes := []struct {
					name string
					bad  float64
				}{
					{hw.SensorCPUTempC, 96},
					{hw.SensorFanRPM, 2200},
				}
				pick := spikes[ctx.Rand.Intn(len(spikes))]
				saved := bank.Read(pick.name)
				bank.Set(pick.name, pick.bad)
				restore := func() { bank.Set(pick.name, saved) }
				return &Active{
					Undo: restore,
					Sensor: &core.Sensor{
						Name: "failure-predictor",
						Check: func(*hw.CPU, *guest.Kernel) error {
							return core.DefaultPredictor().Predict(bank)
						},
					},
					Repair: func(*hw.CPU, *core.Mercury) error {
						restore() // the "repair" is operator intervention on cooling
						return nil
					},
				}, nil
			},
		},
		{
			// A LAPIC silently drops the next posted vector: interrupt
			// delivery is no longer reliable.
			Name: "dropped-ipi", Layer: LayerHW, Detector: DetectInvariant,
			Inject: func(ctx *Ctx) (*Active, error) {
				tgt := ctx.MC.M.CPUs[ctx.Rand.Intn(len(ctx.MC.M.CPUs))]
				tgt.LAPIC.ArmDropNext()
				tgt.LAPIC.Post(ctx.C, hw.VecReschedIPI)
				return &Active{Undo: func() {
					for _, cpu := range ctx.MC.M.CPUs {
						cpu.LAPIC.ClearDropped()
					}
				}}, nil
			},
		},
	}
	if mc.Policy != core.TrackRecompute {
		// Attach-time validation faults need the recompute policy: under
		// active tracking the accounting never goes stale, and under the
		// journal policy a direct-memory corruption bypasses the VO write
		// path the ring records, while pin failures only surface on the
		// nondeterministic fallback path.
		kept := faults[:0]
		for _, f := range faults {
			if f.Name == "pagetable-corruption" || f.Name == "hypercall-transient" {
				continue
			}
			kept = append(kept, f)
		}
		faults = kept
	}
	if mc.Policy == core.TrackJournal {
		faults = append(faults, &Fault{
			// A corrupted dirty-journal record: the re-attach replay's
			// per-slot memory verification must mismatch and roll the
			// switch back; with the record restored the retry commits.
			Name: "journal-corruption", Layer: LayerVMM, Detector: DetectSwitch,
			Inject: func(ctx *Ctx) (*Active, error) {
				j := ctx.MC.VMM.Journal()
				if j == nil {
					return nil, fmt.Errorf("chaos: journal policy selected but no journal installed")
				}
				// A clean attach/detach cycle arms a fresh epoch (clearing
				// any structural degradation the interleaved workloads
				// caused), then populated mappings put replayable entries
				// in the ring for the corruption to hit.
				if err := ctx.MC.SwitchSync(ctx.C, core.ModePartialVirtual); err != nil {
					return nil, fmt.Errorf("chaos: arming journal: %w", err)
				}
				if err := ctx.MC.SwitchSync(ctx.C, core.ModeNative); err != nil {
					return nil, fmt.Errorf("chaos: arming journal: %w", err)
				}
				base := ctx.P.Mmap(4, guest.ProtRead|guest.ProtWrite, true)
				ctx.P.Touch(base, 4, true)
				undo, err := j.CorruptEntryPick(ctx.Rand.Intn)
				if err != nil {
					return nil, err
				}
				return &Active{Undo: undo}, nil
			},
		})
	}
	return faults
}
