package bench

import "testing"

// TestFleetSweepSmoke runs a reduced sweep and checks the admission
// bound.
func TestFleetSweepSmoke(t *testing.T) {
	defer func(n, b, a []int) { FleetNodes, FleetBatches, FleetArrivals = n, b, a }(
		FleetNodes, FleetBatches, FleetArrivals)
	FleetNodes = []int{4}
	FleetBatches = []int{1, 2}
	FleetArrivals = []int{2}

	pts, err := FleetSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points; want 2", len(pts))
	}
	for _, pt := range pts {
		if pt.Completed != pt.Nodes {
			t.Errorf("%dn/%db: completed %d of %d", pt.Nodes, pt.BatchSize,
				pt.Completed, pt.Nodes)
		}
		if pt.MaxInUse > pt.MaxVirtual {
			t.Errorf("%dn/%db: MaxInUse %d > MaxVirtual %d",
				pt.Nodes, pt.BatchSize, pt.MaxInUse, pt.MaxVirtual)
		}
		if pt.MeanAttachCyc == 0 || pt.MeanDetachCyc == 0 {
			t.Errorf("%dn/%db: missing switch costs: %+v", pt.Nodes, pt.BatchSize, pt)
		}
	}
}

// TestFleetSweepDeterminism: the same cell twice gives identical
// points, cycle for cycle.
func TestFleetSweepDeterminism(t *testing.T) {
	a, err := fleetPoint(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetPoint(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical cells diverged:\n%+v\n%+v", a, b)
	}
}
