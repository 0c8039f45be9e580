package bench

import (
	"fmt"
	"io"

	"repro/internal/fleet"
)

// Fleet sweep axes: fleet size × maintenance batch size × admission
// arrival rate (requests submitted per fleet tick).
var (
	FleetNodes    = []int{4, 8}
	FleetBatches  = []int{1, 2, 4}
	FleetArrivals = []int{1, 4}
)

// FleetPoint is one cell of the rolling-maintenance sweep: a fleet of
// the given size taken through one full checkpoint wave, with the
// admission controller bounding virtual-mode concurrency via the
// capacity model (≈15% tax per attached node, ≤10% aggregate loss).
type FleetPoint struct {
	Nodes      int `json:"nodes"`
	BatchSize  int `json:"batch_size"`
	Arrival    int `json:"arrival_per_tick"`
	MaxVirtual int `json:"max_virtual"`

	// Algorithmic outcomes — exact on a deterministic simulation.
	Completed     int   `json:"completed"`
	Ticks         int64 `json:"ticks"`
	MaxInUse      int   `json:"max_in_use"`
	MaxQueueDepth int   `json:"max_queue_depth"`
	Rejected      int   `json:"rejected"`

	// Pipeline costs on the nodes' own TSCs.
	MeanAttachCyc uint64  `json:"mean_attach_cyc"`
	MeanDetachCyc uint64  `json:"mean_detach_cyc"`
	MeanActionCyc uint64  `json:"mean_action_cyc"`
	MeanAttachUS  float64 `json:"mean_attach_us"`
	MeanDetachUS  float64 `json:"mean_detach_us"`
}

// FleetSweep runs one checkpoint wave per (nodes, batch, arrival) cell
// and reports admission behaviour and mean switch latencies. The
// admission bound is a hard invariant: a cell whose high-water mark
// exceeds its MaxVirtual fails the sweep.
func FleetSweep() ([]FleetPoint, error) {
	var pts []FleetPoint
	for _, nodes := range FleetNodes {
		for _, batch := range FleetBatches {
			for _, arrival := range FleetArrivals {
				pt, err := fleetPoint(nodes, batch, arrival)
				if err != nil {
					return nil, fmt.Errorf("bench: fleet %dn/%db/%da: %w",
						nodes, batch, arrival, err)
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

func fleetPoint(nodes, batch, arrival int) (FleetPoint, error) {
	pt := FleetPoint{Nodes: nodes, BatchSize: batch, Arrival: arrival}
	fc, err := fleet.New(fleet.Config{
		Nodes: nodes,
		Node:  fleet.NodeConfig{MemBytes: 48 << 20, Pages: 32},
	})
	if err != nil {
		return pt, err
	}
	pt.MaxVirtual = fc.Config().MaxVirtual
	rep, err := fc.RunWave(fleet.WaveConfig{
		Action:         fleet.ActionCheckpoint,
		BatchSize:      batch,
		ArrivalPerTick: arrival,
	})
	if err != nil {
		return pt, err
	}
	if rep.Admission.MaxInUse > pt.MaxVirtual {
		return pt, fmt.Errorf("admission bound breached: %d in use > MaxVirtual %d",
			rep.Admission.MaxInUse, pt.MaxVirtual)
	}
	pt.Completed = rep.Completed
	pt.Ticks = int64(rep.Ticks)
	pt.MaxInUse = rep.Admission.MaxInUse
	pt.MaxQueueDepth = rep.Admission.MaxQueueDepth
	pt.Rejected = rep.Admission.Rejected
	pt.MeanAttachCyc = uint64(rep.MeanAttachCyc)
	pt.MeanDetachCyc = uint64(rep.MeanDetachCyc)
	pt.MeanActionCyc = uint64(rep.MeanActionCyc)
	m := fc.Nodes[0].M
	pt.MeanAttachUS = m.Micros(rep.MeanAttachCyc)
	pt.MeanDetachUS = m.Micros(rep.MeanDetachCyc)
	return pt, nil
}

// WriteFleetSweep renders the sweep as a table.
func WriteFleetSweep(w io.Writer, pts []FleetPoint) {
	fmt.Fprintf(w, "Rolling maintenance across a Mercury fleet (checkpoint wave, admission-bounded)\n")
	fmt.Fprintf(w, "%6s %6s %8s %6s %6s %6s %7s %7s %11s %11s\n",
		"nodes", "batch", "arrival", "maxV", "inUse", "queue", "done", "ticks",
		"attach(us)", "detach(us)")
	for _, pt := range pts {
		fmt.Fprintf(w, "%6d %6d %8d %6d %6d %6d %7d %7d %11.2f %11.2f\n",
			pt.Nodes, pt.BatchSize, pt.Arrival, pt.MaxVirtual, pt.MaxInUse,
			pt.MaxQueueDepth, pt.Completed, pt.Ticks,
			pt.MeanAttachUS, pt.MeanDetachUS)
	}
}

// FleetBaselineSchema versions the committed fleet baseline.
const FleetBaselineSchema = "mercury-bench/fleet/v1"

// FleetBaseline is the serialized sweep: committed at the repo root as
// BENCH_fleet.json and diffed in CI like the switch and migration
// baselines.
type FleetBaseline struct {
	Schema string       `json:"schema"`
	Sweep  []FleetPoint `json:"sweep"`
}
