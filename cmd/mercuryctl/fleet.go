package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// fleetCmd boots a fleet of Mercury nodes, takes it through one
// rolling-maintenance wave, and prints the per-node pipeline costs,
// the admission outcomes, and the fleet telemetry.
func fleetCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "number of Mercury nodes")
	batch := fs.Int("batch", 1, "nodes maintained per batch")
	arrival := fs.Int("arrival", 0, "admission requests submitted per tick (0 = whole batch at once)")
	deadline := fs.Int("deadline", 0, "per-request admission deadline in ticks (0 = none)")
	maxVirtual := fs.Int("maxvirtual", 0, "virtual-mode concurrency bound (0 = derive from the capacity model)")
	actionName := fs.String("action", "checkpoint",
		"maintenance action (checkpoint or migrate), or top for the periodic fleet view")
	load := fs.Bool("load", false, "run a dbench load on each node at boot")
	interval := fs.Int("interval", 8, "-action top: ticks between snapshots")
	jsonOut := fs.Bool("json", false, "-action top: emit JSON lines instead of text")
	var pol core.TrackingPolicy
	trackingFlag(fs, &pol)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fcfg := fleet.Config{
		Nodes:      *nodes,
		Node:       fleet.NodeConfig{Policy: pol, Pages: 32, RunLoad: *load},
		MaxVirtual: *maxVirtual,
		Collector:  obs.New(1),
	}
	wcfg := fleet.WaveConfig{BatchSize: *batch, ArrivalPerTick: *arrival, DeadlineTicks: *deadline}
	if *actionName == "top" {
		return fleetTop(w, fcfg, wcfg, *interval, *jsonOut)
	}
	action, err := fleet.ParseAction(*actionName)
	if err != nil {
		return err
	}
	fcfg.Standby = action == fleet.ActionMigrate
	fc, err := fleet.New(fcfg)
	if err != nil {
		return err
	}
	cfg := fc.Config()
	fmt.Fprintf(w, "fleet: %d nodes, MaxVirtual=%d (tax %d%%, max capacity loss %d%%), action=%s\n",
		cfg.Nodes, cfg.MaxVirtual, fleet.DefaultVirtualTaxPct,
		fleet.DefaultMaxCapacityLossPct, action)
	if *load {
		for _, n := range fc.Nodes {
			fmt.Fprintf(w, "  %s: dbench %.1f MB/s\n", n.Name, n.Load)
		}
	}

	wcfg.Action = action
	rep, err := fc.RunWave(wcfg)
	if rep == nil {
		return err
	}
	// From here on a non-nil err means the wave aborted; the report
	// still describes it.

	us := fc.Nodes[0].M.Micros
	fmt.Fprintf(w, "\nper-node pipeline (%s wave, batch=%d):\n", rep.Action, rep.BatchSize)
	fmt.Fprintf(w, "%7s %6s %9s %9s %11s %11s %11s %6s\n",
		"node", "batch", "enqueued", "granted", "attach(us)", "action(us)", "detach(us)", "clean")
	for _, nr := range rep.PerNode {
		fmt.Fprintf(w, "%7d %6d %9d %9d %11.2f %11.2f %11.2f %6v\n",
			nr.Node, nr.Batch, nr.EnqueuedAt, nr.GrantedAt,
			us(nr.AttachCyc), us(nr.ActionCyc), us(nr.DetachCyc), nr.HealedClean)
	}

	a := rep.Admission
	fmt.Fprintf(w, "\nwave: completed=%d expired=%d canceled=%d ticks=%d aborted=%v\n",
		rep.Completed, rep.Expired, rep.Canceled, rep.Ticks, rep.Aborted)
	fmt.Fprintf(w, "admission: submitted=%d granted=%d rejected=%d expired=%d max_in_use=%d/%d max_queue=%d\n",
		a.Submitted, a.Granted, a.Rejected, a.Expired, a.MaxInUse,
		cfg.MaxVirtual, a.MaxQueueDepth)
	fmt.Fprintf(w, "mean latencies: attach=%.2fus action=%.2fus detach=%.2fus\n",
		us(rep.MeanAttachCyc), us(rep.MeanActionCyc), us(rep.MeanDetachCyc))

	fmt.Fprintf(w, "\nfleet telemetry:\n")
	fcfg.Collector.Registry.WriteProm(w)
	return err
}

// fleetTop runs a checkpoint wave while sampling the fleet at a fixed
// tick cadence — the operator's `top` view: per-node mode, lifecycle
// state and deferral pressure, plus queue depth, slot usage and the p99
// switch-latency tails from the obs histograms.
func fleetTop(w io.Writer, fcfg fleet.Config, wcfg fleet.WaveConfig, interval int, jsonOut bool) error {
	fc, err := fleet.New(fcfg)
	if err != nil {
		return err
	}
	if interval <= 0 {
		interval = 8
	}

	enc := json.NewEncoder(w)
	var encErr error
	emit := func(s fleet.FleetSnap, final bool) {
		if jsonOut {
			if err := enc.Encode(s); err != nil && encErr == nil {
				encErr = err
			}
			return
		}
		states := map[string]int{}
		for _, n := range s.PerNode {
			states[n.State]++
		}
		fmt.Fprintf(w, "tick %5d  virtual %d/%d  queue %d  slots %d/%d  maintained %d  p99 attach %.0f cyc  p99 detach %.0f cyc  events %d (%d dropped)\n",
			s.Tick, s.Virtual, s.Nodes, s.QueueDepth, s.SlotsInUse, s.SlotsMax,
			s.Maintained, s.P99AttachCyc, s.P99DetachCyc, s.EventsTotal, s.EventsDropped)
		fmt.Fprintf(w, "           states:")
		for _, st := range []string{"serving", "draining", "maintaining", "healed", "failed"} {
			if states[st] > 0 {
				fmt.Fprintf(w, " %s=%d", st, states[st])
			}
		}
		fmt.Fprintln(w)
		if final {
			fmt.Fprintf(w, "\n%6s %-8s %-16s %-12s %10s %8s %8s\n",
				"node", "name", "mode", "state", "deferrals", "hosted", "load")
			for _, n := range s.PerNode {
				fmt.Fprintf(w, "%6d %-8s %-16s %-12s %10d %8d %8.1f\n",
					n.ID, n.Name, n.Mode, n.State, n.Deferrals, n.Hosted, n.Load)
			}
		}
	}

	fc.OnTick = func(now fleet.Tick) {
		if int(now)%interval == 0 {
			emit(fc.Snapshot(), false)
		}
	}
	wcfg.Action = fleet.ActionCheckpoint
	_, err = fc.RunWave(wcfg)
	emit(fc.Snapshot(), true)
	if err != nil {
		return err
	}
	return encErr
}
