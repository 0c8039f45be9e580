package fleet

import (
	"repro/internal/core"
)

// NodeSnap is one node's row in a fleet snapshot: what an operator
// watching `mercuryctl fleet -action top` sees per node.
type NodeSnap struct {
	ID    NodeID  `json:"id"`
	Name  string  `json:"name"`
	Mode  string  `json:"mode"`
	State string  `json:"state"`
	Load  float64 `json:"load,omitempty"`
	// Hosted counts unprivileged domains the node currently hosts
	// (non-zero only while virtual).
	Hosted int `json:"hosted,omitempty"`
	// Deferrals is the node's cumulative deferred-switch count — a
	// rising value flags a node whose maintenance keeps losing to
	// dirty-page churn.
	Deferrals uint64 `json:"deferrals,omitempty"`
}

// FleetSnap is a point-in-time view of the whole fleet, cheap enough to
// take every tick from the OnTick hook.
type FleetSnap struct {
	Tick       Tick `json:"tick"`
	Nodes      int  `json:"nodes"`
	Virtual    int  `json:"virtual"`
	QueueDepth int  `json:"queue_depth"`
	SlotsInUse int  `json:"slots_in_use"`
	SlotsMax   int  `json:"slots_max"`

	// Maintained is how many node maintenances have completed since
	// boot (the fleet/nodes_maintained_total counter).
	Maintained uint64 `json:"maintained"`

	// P99AttachCyc / P99DetachCyc are the fleet-wide switch-latency
	// tails from the obs histograms (0 without a collector or before
	// the first maintenance).
	P99AttachCyc float64 `json:"p99_attach_cyc"`
	P99DetachCyc float64 `json:"p99_detach_cyc"`

	// EventsTotal / EventsDropped report flight-recorder health: how
	// many events were ever recorded and how many the bounded ring had
	// to overwrite.
	EventsTotal   uint64 `json:"events_total"`
	EventsDropped uint64 `json:"events_dropped"`

	PerNode []NodeSnap `json:"per_node"`
}

// Snapshot captures the fleet's current state. It only reads — node
// modes via their atomics, admission bookkeeping, histogram tails — so
// it is safe to call from the OnTick hook at any cadence.
func (fc *Controller) Snapshot() FleetSnap {
	s := FleetSnap{
		Tick:       fc.now,
		Nodes:      len(fc.Nodes),
		QueueDepth: fc.Adm.Depth(),
		SlotsInUse: fc.Adm.InUse(),
		SlotsMax:   fc.cfg.MaxVirtual,
		Maintained: fc.maintained.Load(),
	}
	if fc.attachCyc != nil {
		s.P99AttachCyc = fc.attachCyc.Quantile(0.99)
		s.P99DetachCyc = fc.detachCyc.Quantile(0.99)
	}
	if fc.events != nil {
		s.EventsTotal = fc.events.Total()
		s.EventsDropped = fc.events.Dropped()
	}
	for _, n := range fc.Nodes {
		mode := n.MC.Mode()
		if mode != core.ModeNative {
			s.Virtual++
		}
		ns := NodeSnap{
			ID:        n.ID,
			Name:      n.Name,
			Mode:      mode.String(),
			State:     n.state.String(),
			Load:      n.Load,
			Deferrals: n.MC.Stats.Deferred.Load(),
		}
		if mode != core.ModeNative {
			ns.Hosted = len(n.MC.HostedDomains())
		}
		s.PerNode = append(s.PerNode, ns)
	}
	return s
}
