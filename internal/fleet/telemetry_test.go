package fleet

import (
	"testing"

	"repro/internal/obs"
)

// TestSharedCollectorSumsNodes: the fleet installs one collector on
// every node's machine. Each series must sum the per-node Stats
// counters it adopted, while each node's Stats keeps its own count.
func TestSharedCollectorSumsNodes(t *testing.T) {
	const nodes = 3
	col := obs.New(1)
	cfg := testConfig(nodes, false)
	cfg.Collector = col
	fc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fc.RunWave(WaveConfig{Action: ActionCheckpoint, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != nodes {
		t.Fatalf("completed %d of %d nodes", rep.Completed, nodes)
	}
	r := col.Registry
	var attaches, hypercalls, native, virtual uint64
	for _, n := range fc.Nodes {
		own := n.MC.Stats.Attaches.Load()
		if own != 1 {
			t.Errorf("%s: own Stats.Attaches = %d, want 1", n.Name, own)
		}
		attaches += own
		hc := n.MC.Dom.Stats.Hypercalls.Load()
		if hc == 0 {
			t.Errorf("%s: no hypercalls counted", n.Name)
		}
		hypercalls += hc
		nat, virt := n.MC.NativeVO.Stats.Calls.Load(), n.MC.VirtualVO.Stats.Calls.Load()
		if nat == 0 || virt == 0 {
			t.Errorf("%s: vo calls native=%d virtual=%d, want both > 0", n.Name, nat, virt)
		}
		native += nat
		virtual += virt
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"core/attaches_total", r.Counter("core", "attaches_total").Load(), attaches},
		{"xen/hypercalls_total", r.Counter("xen", "hypercalls_total").Load(), hypercalls},
		{"vo/calls_total{object=native}", r.Counter("vo", "calls_total", obs.L("object", "native")).Load(), native},
		{"vo/calls_total{object=virtual}", r.Counter("vo", "calls_total", obs.L("object", "virtual")).Load(), virtual},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want the per-node sum %d", c.name, c.got, c.want)
		}
	}
	if hc := fc.Nodes[0].MC.Dom.Stats.Hypercalls.Load(); hc == hypercalls {
		t.Errorf("node 0 holds every hypercall (%d): per-node counters are shared", hc)
	}
}
