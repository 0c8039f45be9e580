package workloads

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
)

// TestIOServerSwitchUnderLoadExactlyOnce is the satellite's in-flight
// I/O across a mode switch test: every submitted request completes
// exactly once even though the M→N detach tears down the client domain
// mid-run, and the switch window actually intersected the request
// stream.
func TestIOServerSwitchUnderLoadExactlyOnce(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 2, Depth: 32, Requests: 600, MeanArrival: 6000,
		Seed: 42, Virtual: true, SwitchMid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted || res.Completed != 600 {
		t.Fatalf("completed %d of %d submitted (want 600)", res.Completed, res.Submitted)
	}
	if res.Duplicates != 0 || res.Lost != 0 {
		t.Fatalf("duplicates=%d lost=%d", res.Duplicates, res.Lost)
	}
	if res.FinalMode != "native" {
		t.Fatalf("final mode %q, want native", res.FinalMode)
	}
	if res.SwitchCyc == 0 {
		t.Fatal("switch window not measured")
	}
	if res.WindowRequests == 0 {
		t.Fatal("no requests were in flight across the switch")
	}
	if res.WindowP99 == 0 || res.WindowP99 < res.WindowP50 {
		t.Fatalf("window quantiles inconsistent: p50=%d p99=%d",
			res.WindowP50, res.WindowP99)
	}
}

// TestIOServerRejectsReadPct: a read share outside [0, 100] is an
// error, not a silent 50/50 mix.
func TestIOServerRejectsReadPct(t *testing.T) {
	for _, pct := range []int{-1, 101} {
		if _, err := RunIOServer(IOConfig{Requests: 10, ReadPct: pct}); err == nil {
			t.Errorf("ReadPct %d accepted", pct)
		}
	}
}

// TestIOServerSuppressionRatio pins the acceptance criterion: at ring
// depth >= 64 the event-index protocol coalesces at least 5 ring slots
// per doorbell.
func TestIOServerSuppressionRatio(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 1, Depth: 64, Requests: 500, MeanArrival: 3000,
		Seed: 7, Virtual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 {
		t.Fatalf("completed %d of 500", res.Completed)
	}
	if res.SuppressionRatio < 5 {
		t.Fatalf("suppression ratio %.2f < 5 at depth 64 (kicks: req=%d resp=%d forced=%d)",
			res.SuppressionRatio, res.ReqKicks, res.RespKicks, res.ForcedKicks)
	}
}

func TestIOServerNativeBaseline(t *testing.T) {
	res, err := RunIOServer(IOConfig{
		Queues: 1, Depth: 32, Requests: 300, MeanArrival: 6000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 || res.Lost != 0 || res.Duplicates != 0 {
		t.Fatalf("native run: completed=%d lost=%d dup=%d",
			res.Completed, res.Lost, res.Duplicates)
	}
	if res.FinalMode != "native" {
		t.Fatalf("final mode %q", res.FinalMode)
	}
	if res.ReqKicks != 0 && res.SuppressionRatio != 0 {
		t.Fatal("native run should not touch the ring datapath")
	}
}

// TestIOServerDeterministic: the simulation has no wall-clock or float
// randomness, so identical configs must yield byte-identical results —
// the property the CI baseline diff relies on.
func TestIOServerDeterministic(t *testing.T) {
	cfg := IOConfig{
		Queues: 2, Depth: 16, Requests: 400, MeanArrival: 5000,
		Seed: 1234, Virtual: true, SwitchMid: true,
	}
	a, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestIOServerDoorbellSeries pins the ring-doorbell series of an M-V
// run with a collector installed: the registry sums the doorbell
// counters of every queue ring, frontend request pushes and backend
// completions alike.
func TestIOServerDoorbellSeries(t *testing.T) {
	for _, c := range []struct {
		cfg                     IOConfig
		kicks, suppressed, evts uint64
	}{
		{IOConfig{Queues: 1, Depth: 64, Requests: 500, MeanArrival: 3000, Seed: 7, Virtual: true}, 18, 2, 10},
		{IOConfig{Queues: 2, Depth: 32, Requests: 600, MeanArrival: 6000, Seed: 42, Virtual: true, SwitchMid: true}, 24, 0, 12},
	} {
		col := obs.New(1)
		c.cfg.Collector = col
		res, err := RunIOServer(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := col.Registry
		kicks := r.Counter("xen", "ring_doorbells_total").Load()
		suppressed := r.Counter("xen", "ring_doorbells_suppressed_total").Load()
		if kicks != c.kicks || suppressed != c.suppressed || res.BackendEvents != c.evts {
			t.Errorf("seed %d: doorbells %d, suppressed %d, backend events %d; want %d, %d, %d",
				c.cfg.Seed, kicks, suppressed, res.BackendEvents, c.kicks, c.suppressed, c.evts)
		}
		if kicks != res.ReqKicks+res.RespKicks {
			t.Errorf("seed %d: doorbell series %d != ring kicks %d+%d",
				c.cfg.Seed, kicks, res.ReqKicks, res.RespKicks)
		}
	}
}

// ioHangConfig is the split-datapath setup the two hang regressions
// share: four 64-deep queues under a 50% read mix on M-V.
func ioHangConfig() IOConfig {
	return IOConfig{Queues: 4, Depth: 64, ReadPct: 50, Virtual: true, Policy: core.TrackRecompute}
}

// requireExactlyOnce fails unless every one of want requests was
// submitted and completed exactly once.
func requireExactlyOnce(t *testing.T, res *IOResult, want int) {
	t.Helper()
	if res.Submitted != want || res.Completed != want || res.Duplicates != 0 || res.Lost != 0 {
		t.Fatalf("submitted=%d completed=%d dup=%d lost=%d, want %d exactly once",
			res.Submitted, res.Completed, res.Duplicates, res.Lost, want)
	}
}

// TestIOServerTickInRingSectionNoDeadlock: a 100k requests/s burst
// that outlasts the first 10 ms tick. The tick used to land in a
// Charge made under the ring mutex, and the backend slice it ran
// blocked on that same mutex.
func TestIOServerTickInRingSectionNoDeadlock(t *testing.T) {
	cfg := ioHangConfig()
	cfg.Requests, cfg.MeanArrival, cfg.Seed = 1100, hw.Cycles(hw.DefaultHz/100_000), 120
	res, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireExactlyOnce(t, res, 1100)
}

// TestIOServerTickInMulticallNoLivelock: a mode switch under a long
// run. The tick used to land in the doorbell multicall's MMU-locked
// section, and the backend's grant map spun on the lock its own
// goroutine held.
func TestIOServerTickInMulticallNoLivelock(t *testing.T) {
	cfg := ioHangConfig()
	cfg.Requests, cfg.MeanArrival, cfg.Seed, cfg.SwitchMid = 20_000, 16_000, 3, true
	res, err := RunIOServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireExactlyOnce(t, res, 20_000)
	if res.FinalMode != "native" {
		t.Fatalf("final mode %q, want native", res.FinalMode)
	}
}

// TestIOServerBytesPerRequest is the request path's allocation budget,
// on io-serve's datapath: M-V, 4 queues x 64, 150k requests/s, 50%
// reads. Boot and attach cost the same at any run length, so the
// TotalAlloc difference between a 4,400-request run and a 1,100-request
// run is what the 3,300 extra requests cost: at most 256 B each. A
// fresh 4 KiB buffer per written block costs about 2 KiB per request.
func TestIOServerBytesPerRequest(t *testing.T) {
	alloc := func(requests int) uint64 {
		cfg := ioHangConfig()
		cfg.Requests, cfg.MeanArrival, cfg.Seed = requests, hw.Cycles(hw.DefaultHz/150_000), 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunIOServer(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		requireExactlyOnce(t, res, requests)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(1100), alloc(4400)
	per := (float64(long) - float64(short)) / 3300
	t.Logf("%.1f B per extra request (%d B for 1,100 requests, %d B for 4,400)", per, short, long)
	if per > 256 {
		t.Fatalf("each extra request allocates %.1f B, want at most 256", per)
	}
}
