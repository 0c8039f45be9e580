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

// eventsCmd drives a fleet through one rolling-maintenance wave and
// dumps the flight recorder: every mode transition, admission decision,
// wave phase, heal outcome, and migration verdict the bounded event log
// retained, with drop accounting.
func eventsCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "number of Mercury nodes")
	batch := fs.Int("batch", 1, "nodes maintained per batch")
	deadline := fs.Int("deadline", 0, "per-request admission deadline in ticks (0 = none)")
	actionName := fs.String("action", "checkpoint", "maintenance action: checkpoint or migrate")
	kind := fs.String("kind", "", "only show this event kind (e.g. mode-switch, admission-grant)")
	nodeFilter := fs.Int("node", -2, "only show this node's events (-1 = fleet-level, -2 = all)")
	last := fs.Int("last", 0, "only show the newest N matching events (0 = all)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")
	var pol core.TrackingPolicy
	trackingFlag(fs, &pol)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	action, err := fleet.ParseAction(*actionName)
	if err != nil {
		return err
	}
	var kindFilter obs.EventKind
	if *kind != "" {
		if kindFilter, err = obs.ParseEventKind(*kind); err != nil {
			return err
		}
	}

	col := obs.New(1)
	fc, err := fleet.New(fleet.Config{
		Nodes:     *nodes,
		Node:      fleet.NodeConfig{Policy: pol, Pages: 32},
		Standby:   action == fleet.ActionMigrate,
		Collector: col,
	})
	if err != nil {
		return err
	}
	// The flight recorder is most interesting exactly when the wave
	// failed: dump what it captured, then report the failure.
	_, waveErr := fc.RunWave(fleet.WaveConfig{
		Action:        action,
		BatchSize:     *batch,
		DeadlineTicks: *deadline,
	})

	evs := col.Events.Snapshot()
	filtered := make([]obs.Event, 0, len(evs))
	for _, e := range evs {
		if kindFilter != 0 && e.Kind != kindFilter {
			continue
		}
		if *nodeFilter != -2 && e.Node != int32(*nodeFilter) {
			continue
		}
		filtered = append(filtered, e)
	}
	if *last > 0 && len(filtered) > *last {
		filtered = filtered[len(filtered)-*last:]
	}

	if *jsonOut {
		out := struct {
			Events  []obs.Event `json:"events"`
			Total   uint64      `json:"total"`
			Dropped uint64      `json:"dropped"`
		}{filtered, col.Events.Total(), col.Events.Dropped()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		return waveErr
	}

	fmt.Fprintf(w, "%6s %8s %6s %-18s %12s %12s\n", "seq", "tick", "node", "kind", "a", "b")
	for _, e := range filtered {
		node := fmt.Sprint(e.Node)
		if e.Node < 0 {
			node = "fleet"
		}
		fmt.Fprintf(w, "%6d %8d %6s %-18s %12d %12d\n", e.Seq, e.TS, node, e.Kind, e.A, e.B)
	}
	fmt.Fprintf(w, "%d shown of %d retained (%d recorded, %d dropped by ring wrap)\n",
		len(filtered), len(evs), col.Events.Total(), col.Events.Dropped())
	return waveErr
}
