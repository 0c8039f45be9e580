package fleet

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// DefaultVirtualTaxPct is the per-node throughput cost of running in
// virtual mode — Table 1's worst-case lmbench degradation between M-N
// and M-V is on the order of 15%.
const DefaultVirtualTaxPct = 15

// DefaultMaxCapacityLossPct is the fleet-wide serving-capacity loss the
// admission controller is willing to trade for maintenance progress: a
// switched node keeps serving (that is self-virtualization's point) but
// at 100−DefaultVirtualTaxPct percent, so the aggregate loss with k
// nodes attached is k·DefaultVirtualTaxPct/Nodes percent.
const DefaultMaxCapacityLossPct = 10

// Config shapes one fleet.
type Config struct {
	// Nodes is the fleet size (≥ 1).
	Nodes int
	// Node shapes each node (memory, policy, working set, load).
	Node NodeConfig

	// MaxVirtual bounds concurrent virtual-mode nodes. 0 derives it
	// from the capacity model (DeriveMaxVirtual).
	MaxVirtual int

	// Standby, when true, boots a standby VMM so ActionMigrate works.
	Standby bool

	// Collector receives fleet-level telemetry (optional).
	Collector *obs.Collector
}

// DeriveMaxVirtual applies the capacity model to a fleet size: with
// each attached node paying DefaultVirtualTaxPct of its throughput, at
// most nodes·DefaultMaxCapacityLossPct/DefaultVirtualTaxPct nodes may be
// attached before the fleet loses more than DefaultMaxCapacityLossPct
// of its aggregate capacity. At least one node may always attach; the
// loss is below the tax, so the bound never exceeds the fleet size.
func DeriveMaxVirtual(nodes int) int {
	return max(nodes*DefaultMaxCapacityLossPct/DefaultVirtualTaxPct, 1)
}

// Controller owns the fleet: the nodes, the standby, the admission
// controller, and the fleet clock.
type Controller struct {
	Nodes []*Node
	Adm   *Admission
	// Standby is the host every ActionMigrate pipeline sends its
	// environment to; nil unless Config.Standby.
	Standby *xen.Host

	cfg Config
	col *obs.Collector
	now Tick

	// events is the fleet flight recorder (the collector's event log);
	// nil without a collector.
	events *obs.EventLog

	// OnTick, when set, runs after every fleet tick inside RunWave —
	// the hook the `mercuryctl fleet -action top` view uses to sample
	// fleet state at a fixed cadence. It runs on the controller's
	// single-threaded tick loop; keep it cheap.
	OnTick func(now Tick)

	wavesTotal *obs.Counter // fleet/waves_total
	waveAborts *obs.Counter // fleet/wave_aborts_total
	maintained *obs.Counter // fleet/nodes_maintained_total

	// Telemetry (nil-safe: left unset without a collector).
	waveProgress *obs.Gauge
	waveBatch    *obs.Gauge
	attachCyc    *obs.Histogram
	detachCyc    *obs.Histogram
	actionCyc    *obs.Histogram

	// PreAttach, when set, runs inside each node's maintenance process
	// just before the VMM attach — the hook the chaos-style property
	// tests use to inject faults mid-wave. A non-nil cleanup is run when
	// the pipeline unwinds (success or failure), before the maintenance
	// process exits: an injected fault must be lifted with the node
	// still alive, the same discipline the chaos campaign's episodes
	// follow.
	PreAttach func(n *Node, p *guest.Proc) (cleanup func(), err error)
}

// New boots a fleet.
func New(cfg Config) (*Controller, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: need at least one node")
	}
	if cfg.MaxVirtual == 0 {
		cfg.MaxVirtual = DeriveMaxVirtual(cfg.Nodes)
	}
	fc := &Controller{cfg: cfg, col: cfg.Collector,
		wavesTotal: obs.NewCounter(), waveAborts: obs.NewCounter(), maintained: obs.NewCounter()}
	if cfg.Collector != nil {
		fc.events = cfg.Collector.Events
	}
	// The queue holds 2·Nodes requests: a whole wave can wait, anything
	// more is a caller bug.
	fc.Adm = NewAdmission(cfg.MaxVirtual, 2*cfg.Nodes, cfg.Collector)
	ncfg := cfg.Node
	ncfg.Collector = cfg.Collector
	for i := 0; i < cfg.Nodes; i++ {
		n, err := NewNode(NodeID(i), ncfg)
		if err != nil {
			return nil, err
		}
		fc.Nodes = append(fc.Nodes, n)
	}
	if cfg.Standby {
		sb, err := xen.BootHost(hw.Config{Name: "fleet-standby", MemBytes: 64 << 20, NumCPUs: 1}, 2048)
		if err != nil {
			return nil, fmt.Errorf("fleet: booting standby: %w", err)
		}
		fc.Standby = sb
	}
	if col := cfg.Collector; col != nil {
		r := col.Registry
		fc.waveProgress = r.Gauge("fleet", "wave_progress")
		fc.waveBatch = r.Gauge("fleet", "wave_batch")
		r.RegisterCounter(fc.wavesTotal, "fleet", "waves_total")
		r.RegisterCounter(fc.waveAborts, "fleet", "wave_aborts_total")
		r.RegisterCounter(fc.maintained, "fleet", "nodes_maintained_total")
		fc.attachCyc = r.Histogram("fleet", "node_attach_cycles")
		fc.detachCyc = r.Histogram("fleet", "node_detach_cycles")
		fc.actionCyc = r.Histogram("fleet", "node_action_cycles")
	}
	return fc, nil
}

// Config returns the (defaults-filled) configuration the fleet was
// built with.
func (fc *Controller) Config() Config { return fc.cfg }

// CheckFleetInvariants verifies every node is quiescent-clean — the
// fleet-level analogue of core.CheckInvariants, consulted after a wave.
func (fc *Controller) CheckFleetInvariants() error {
	for _, n := range fc.Nodes {
		if err := n.MC.CheckInvariants(n.M.BootCPU()); err != nil {
			return fmt.Errorf("fleet: %s: %w", n.Name, err)
		}
	}
	return nil
}

// event records a fleet-level flight-recorder entry stamped with the
// fleet clock. No-op without a collector.
func (fc *Controller) event(kind obs.EventKind, node int32, a, b uint64) {
	if fc.events == nil {
		return
	}
	fc.events.Record(kind, node, uint64(fc.now), a, b)
}
