package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/internal/xen"
)

// NodeID identifies one node within its fleet.
type NodeID int

// NodeState is a node's position in the maintenance lifecycle, as the
// controller sees it.
type NodeState int

// Node lifecycle states.
const (
	// NodeServing: native mode, taking traffic.
	NodeServing NodeState = iota
	// NodeDraining: cordoned — no new fleet work — waiting for admission.
	NodeDraining
	// NodeMaintaining: admitted; the VMM is (being) attached and the
	// maintenance action is running.
	NodeMaintaining
	// NodeHealed: maintenance done, verified healthy, serving again.
	NodeHealed
	// NodeFailed: the pipeline failed; the wave was aborted because of
	// this node.
	NodeFailed
)

func (s NodeState) String() string {
	switch s {
	case NodeServing:
		return "serving"
	case NodeDraining:
		return "draining"
	case NodeMaintaining:
		return "maintaining"
	case NodeHealed:
		return "healed"
	case NodeFailed:
		return "failed"
	}
	return fmt.Sprintf("state%d", int(s))
}

// Node is one self-virtualizable Mercury system under fleet control:
// its own simulated machine, pre-cached VMM, guest kernel, and
// workload load.
type Node struct {
	ID   NodeID
	Name string
	MC   *core.Mercury
	M    *hw.Machine

	state NodeState

	// Load is the dbench score of the node's boot-time workload run
	// (MB/s at the simulated clock); zero when the load was skipped.
	Load float64
}

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return n.state }

// NodeConfig shapes one node.
type NodeConfig struct {
	// MemBytes sizes the node's physical memory (default 64 MiB — the
	// per-operation cost model makes memory size a working-set bound,
	// not a speed knob).
	MemBytes uint64
	// Policy is the node's frame-tracking policy.
	Policy core.TrackingPolicy
	// Pages is the resident working set the maintenance driver process
	// populates before attaching (what the attach must validate).
	Pages int
	// RunLoad runs a scaled-down dbench on the node after boot, so the
	// kernel under maintenance has a real filesystem/page-cache history
	// rather than a freshly booted one.
	RunLoad bool
	// MaxDeferrals bounds how often a node's switch may defer before
	// reporting starvation (0 = the core default). Fleet operators keep
	// this small: a wedged node should fail its wave quickly rather
	// than hold an admission slot while it spins.
	MaxDeferrals int
	// Collector, when non-nil, is installed on the node's machine before
	// boot: node-level instrumentation (vo objects, the VMM, the switch
	// ISR's flight-recorder events) then lands in the fleet's shared
	// collector, attributed by node ID. The controller fills this from
	// its own Config.Collector.
	Collector *obs.Collector
}

// NewNode boots one fleet node: machine, pre-cached VMM, kernel — and,
// when configured, its workload load.
func NewNode(id NodeID, cfg NodeConfig) (*Node, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	name := fmt.Sprintf("node%d", id)
	m := hw.NewMachine(hw.Config{Name: name, MemBytes: cfg.MemBytes, NumCPUs: 1})
	if cfg.Collector != nil {
		m.SetTelemetry(cfg.Collector)
	}
	mc, err := core.New(core.Config{
		Machine: m, Policy: cfg.Policy, MaxDeferrals: cfg.MaxDeferrals,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: booting %s: %w", name, err)
	}
	mc.NodeID = int32(id)
	// Bind the kernel to the machine's devices so workloads (and any
	// filesystem history they leave behind) run against a real disk.
	mc.K.Blk = &guest.NativeBlock{K: mc.K, Disk: m.Disk}
	mc.K.Net = &guest.NativeNet{K: mc.K, NIC: m.NIC}
	n := &Node{ID: id, Name: name, MC: mc, M: m}
	if cfg.RunLoad {
		res := workloads.Dbench(n.target())
		n.Load = res.MBps
	}
	return n, nil
}

// target adapts the node to the workloads package.
func (n *Node) target() *workloads.Target {
	return &workloads.Target{
		K: n.MC.K,
		M: n.M,
		Run: func(name string, body guest.Body) {
			boot := n.M.BootCPU()
			n.MC.K.Spawn(boot, name, guest.DefaultImage(name), body)
			n.MC.K.Run(boot)
		},
	}
}

// Action is the maintenance performed on an admitted node inside its
// attach window.
type Action int

// Maintenance actions.
const (
	// ActionCheckpoint snapshots a hosted environment (§6.1) and
	// discards it after verifying the image decodes.
	ActionCheckpoint Action = iota
	// ActionMigrate live-migrates a hosted environment to the fleet's
	// standby node through the transactional §6.3 pipeline.
	ActionMigrate
)

func (a Action) String() string {
	switch a {
	case ActionCheckpoint:
		return "checkpoint"
	case ActionMigrate:
		return "migrate"
	}
	return fmt.Sprintf("action%d", int(a))
}

// ParseAction maps a CLI spelling to an Action.
func ParseAction(s string) (Action, error) {
	switch s {
	case "checkpoint":
		return ActionCheckpoint, nil
	case "migrate":
		return ActionMigrate, nil
	}
	return 0, fmt.Errorf("fleet: unknown action %q (want checkpoint or migrate)", s)
}

// envFrames is the hosted environment's partition size during a
// maintenance action — small enough that repeated waves never exhaust a
// node's partition, big enough that checkpoint/migration cost is
// visible in the report.
const envFrames = 96

// NodeReport is one node's measured trip through the pipeline.
type NodeReport struct {
	Node  NodeID `json:"node"`
	Batch int    `json:"batch"`

	// Fleet-clock bookkeeping (ticks).
	EnqueuedAt Tick `json:"enqueued_at"`
	GrantedAt  Tick `json:"granted_at"`
	ReleasedAt Tick `json:"released_at"`

	// Node-clock costs (cycles on the node's own TSC).
	AttachCyc hw.Cycles `json:"attach_cyc"`
	ActionCyc hw.Cycles `json:"action_cyc"`
	DetachCyc hw.Cycles `json:"detach_cyc"`

	// Action outcome.
	ImagePages  int       `json:"image_pages,omitempty"`  // checkpoint: snapshot size
	Migrated    bool      `json:"migrated,omitempty"`     // migrate: committed
	DowntimeCyc hw.Cycles `json:"downtime_cyc,omitempty"` // migrate: stop-and-copy window
	HealedClean bool      `json:"healed_clean"`           // post-detach invariants passed
}

// maintain runs the node's whole pipeline inside a spawned driver
// process: populate the working set, attach, perform the action, detach,
// heal-verify. preAttach, when non-nil, runs in process context before
// the attach — the fault-injection hook the abort property tests use.
func (n *Node) maintain(action Action, pages int, standby *xen.Host,
	preAttach func(n *Node, p *guest.Proc) (func(), error), rep *NodeReport) error {

	mc := n.MC
	boot := n.M.BootCPU()
	var perr error
	mc.K.Spawn(boot, "fleet-maint", guest.DefaultImage("fleet-maint"), func(p *guest.Proc) {
		perr = n.pipeline(p, action, pages, standby, preAttach, rep)
	})
	mc.K.Run(boot)
	return perr
}

func (n *Node) pipeline(p *guest.Proc, action Action, pages int, standby *xen.Host,
	preAttach func(n *Node, p *guest.Proc) (func(), error), rep *NodeReport) error {

	mc := n.MC
	if pages > 0 {
		base := p.Mmap(pages, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, pages, true)
	}
	if preAttach != nil {
		cleanup, err := preAttach(n, p)
		if cleanup != nil {
			defer cleanup()
		}
		if err != nil {
			return fmt.Errorf("pre-attach hook: %w", err)
		}
	}

	// Attach: self-virtualize under the running load.
	if err := mc.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	rep.AttachCyc = hw.Cycles(mc.Stats.LastAttachCyc.Load())

	// Action, inside the attach window.
	c := p.CPU()
	actionStart := c.Now()
	aerr := n.runAction(c, action, standby, rep)
	rep.ActionCyc = c.Now() - actionStart
	if aerr != nil {
		// Best effort: leave the node native even when the action
		// failed, so an aborted wave never strands a node virtual.
		_ = mc.SwitchSync(p.CPU(), core.ModeNative)
		return fmt.Errorf("%s: %w", action, aerr)
	}

	// Detach: back to native speed.
	if err := mc.SwitchSync(p.CPU(), core.ModeNative); err != nil {
		return fmt.Errorf("detach: %w", err)
	}
	rep.DetachCyc = hw.Cycles(mc.Stats.LastDetachCyc.Load())

	// Heal: the same oracle the chaos campaigns consult — the node must
	// verify clean before it rejoins the serving set. A tripped healing
	// sensor gets one self-heal attempt first.
	if hr, err := mc.SelfHeal(p.CPU(), []core.Sensor{core.RunqueueSensor()},
		core.RunqueueRepair()); err != nil {
		return fmt.Errorf("heal: %w", err)
	} else if hr != nil && !hr.Healed {
		return fmt.Errorf("heal: anomaly %q persists", hr.Anomaly)
	}
	if err := mc.CheckInvariants(p.CPU()); err != nil {
		return fmt.Errorf("post-maintenance invariants: %w", err)
	}
	rep.HealedClean = true
	return nil
}

// runAction performs the maintenance payload with the VMM attached.
func (n *Node) runAction(c *hw.CPU, action Action, standby *xen.Host, rep *NodeReport) error {
	mc := n.MC
	env, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "env", envFrames)
	if err != nil {
		return fmt.Errorf("hosting environment: %w", err)
	}
	lo, _ := env.Frames.Range()
	for i := 0; i < envFrames/2; i++ {
		n.M.Mem.WriteWord((lo + hw.PFN(i)).Addr(), 0xF1EE7000|uint32(n.ID)<<8|uint32(i))
	}

	switch action {
	case ActionCheckpoint:
		img, err := migrate.Checkpoint(c, mc.VMM, mc.Dom, env)
		if err != nil {
			return err
		}
		blob, err := img.Bytes()
		if err != nil {
			return err
		}
		back, err := migrate.DecodeImage(blob)
		if err != nil {
			return err
		}
		rep.ImagePages = len(back.Pages)
		return mc.VMM.HypDomctlDestroy(c, mc.Dom, env.ID)

	case ActionMigrate:
		if standby == nil {
			return fmt.Errorf("no standby configured")
		}
		moved, lr, err := migrate.Live(c, mc.VMM, mc.Dom, env,
			standby.V, standby.Dom0, migrate.LiveConfig{})
		if err != nil {
			return err
		}
		rep.Migrated = lr.Verified
		rep.DowntimeCyc = lr.DowntimeCyc
		// Release the standby copy so repeated waves don't exhaust the
		// standby's partition: in production the environment would keep
		// running there until the node returns.
		return standby.V.DestroyDomain(moved.ID)
	}
	return fmt.Errorf("unknown action %v", action)
}
