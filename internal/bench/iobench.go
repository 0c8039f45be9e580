package bench

import (
	"fmt"
	"io"

	"repro/internal/hw"
	"repro/internal/workloads"
)

// IOPoint is one cell of the split-device I/O sweep: an open-loop
// request stream at one (queues, depth, arrival-rate) setting, run
// through both the native block layer (M-N) and the multi-queue split
// datapath (M-V). Every field, cycle figures included, is exact: the
// simulation is deterministic.
type IOPoint struct {
	Queues  int       `json:"queues"`
	Depth   int       `json:"depth"`
	Arrival hw.Cycles `json:"arrival_cyc"`

	Native  workloads.IOResult `json:"native"`
	Virtual workloads.IOResult `json:"virtual"`

	// SlowdownPct is the M-V mean-latency overhead over M-N at this
	// setting (negative means the split path was faster).
	SlowdownPct float64 `json:"slowdown_pct"`
}

// IOSwitchPoint is the mode-switch tail-latency story: one loaded M-V
// run with a V→N switch fired mid-stream, reporting the latency
// distribution of the requests in flight across the switch window.
type IOSwitchPoint struct {
	Queues  int       `json:"queues"`
	Depth   int       `json:"depth"`
	Arrival hw.Cycles `json:"arrival_cyc"`

	Result workloads.IOResult `json:"result"`
}

// The swept grid: queue counts x ring depths x open-loop arrival gaps.
// The 3000-cycle column saturates the datapath (arrival faster than the
// ~15k-cycle M-V service rate, latency dominated by queueing); 20000
// keeps it stable, so latency is dominated by the doorbell-coalescing
// wait — the batching-vs-latency tradeoff the threshold buys into.
var (
	IOQueues   = []int{1, 4}
	IODepths   = []int{16, 64}
	IOArrivals = []hw.Cycles{3000, 20000}
)

// ioSeed fixes the arrival schedule and read/write mix so the committed
// baseline's counts are reproducible bit-for-bit.
const ioSeed = 42

// ioPointRequests keeps each cell long enough for stable doorbell
// coalescing statistics without dominating the sweep's runtime.
const ioPointRequests = 5000

// ioSwitchRequests sizes the switch point so plenty of requests are in
// flight when the detach fires at the halfway mark.
const ioSwitchRequests = 8000

// IOSweep runs the I/O grid plus the mode-switch point.
func IOSweep() ([]IOPoint, *IOSwitchPoint, error) {
	var pts []IOPoint
	for _, q := range IOQueues {
		for _, d := range IODepths {
			for _, arr := range IOArrivals {
				pt, err := ioPoint(q, d, arr)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: io %dq/%dd/%darr: %w", q, d, arr, err)
				}
				pts = append(pts, pt)
			}
		}
	}
	sw, err := ioSwitchPoint(4, 64, 6000)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: io switch point: %w", err)
	}
	return pts, sw, nil
}

func ioPoint(queues, depth int, arrival hw.Cycles) (IOPoint, error) {
	pt := IOPoint{Queues: queues, Depth: depth, Arrival: arrival}
	nat, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: queues, Depth: depth, Requests: ioPointRequests,
		MeanArrival: arrival, Seed: ioSeed,
	})
	if err != nil {
		return pt, err
	}
	virt, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: queues, Depth: depth, Requests: ioPointRequests,
		MeanArrival: arrival, Seed: ioSeed, Virtual: true,
	})
	if err != nil {
		return pt, err
	}
	pt.Native, pt.Virtual = *nat, *virt
	if nat.Mean > 0 {
		pt.SlowdownPct = (float64(virt.Mean) - float64(nat.Mean)) / float64(nat.Mean) * 100
	}
	return pt, nil
}

func ioSwitchPoint(queues, depth int, arrival hw.Cycles) (*IOSwitchPoint, error) {
	res, err := workloads.RunIOServer(workloads.IOConfig{
		Queues: queues, Depth: depth, Requests: ioSwitchRequests,
		MeanArrival: arrival, Seed: ioSeed,
		Virtual: true, SwitchMid: true,
	})
	if err != nil {
		return nil, err
	}
	return &IOSwitchPoint{Queues: queues, Depth: depth, Arrival: arrival, Result: *res}, nil
}

// WriteIOSweep renders the sweep and the switch point as tables.
func WriteIOSweep(w io.Writer, pts []IOPoint, sw *IOSwitchPoint) {
	fmt.Fprintf(w, "Split-device I/O datapath: M-N native vs M-V multi-queue rings\n")
	fmt.Fprintf(w, "%3s %5s %7s %12s %12s %9s %9s %9s %8s\n",
		"q", "depth", "arrival", "nat p99(cyc)", "mv p99(cyc)", "slow(%)", "suppr(x)", "kicks", "forced")
	for _, pt := range pts {
		fmt.Fprintf(w, "%3d %5d %7d %12d %12d %9.1f %9.1f %9d %8d\n",
			pt.Queues, pt.Depth, pt.Arrival, pt.Native.P99, pt.Virtual.P99,
			pt.SlowdownPct, pt.Virtual.SuppressionRatio,
			pt.Virtual.ReqKicks+pt.Virtual.RespKicks, pt.Virtual.ForcedKicks)
	}
	if sw != nil {
		r := sw.Result
		fmt.Fprintf(w, "\nMode switch under load (%dq/%dd/%darr, %d requests)\n",
			sw.Queues, sw.Depth, sw.Arrival, r.Submitted)
		fmt.Fprintf(w, "  switch %d cyc; %d requests crossed the window: p50=%d p99=%d p999=%d cyc\n",
			r.SwitchCyc, r.WindowRequests, r.WindowP50, r.WindowP99, r.WindowP999)
		fmt.Fprintf(w, "  exactly-once: %d submitted, %d completed, %d dup, %d lost; final mode %s\n",
			r.Submitted, r.Completed, r.Duplicates, r.Lost, r.FinalMode)
	}
}

// IOBaselineSchema versions the committed I/O baseline.
const IOBaselineSchema = "mercury-bench/io/v1"

// IOBaseline is the serialized sweep: committed at the repo root as
// BENCH_io.json and diffed in CI like the other baselines.
type IOBaseline struct {
	Schema string         `json:"schema"`
	Sweep  []IOPoint      `json:"sweep"`
	Switch *IOSwitchPoint `json:"switch"`
}
