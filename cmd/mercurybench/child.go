package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/hw"
)

// A unit is what one child process runs: one rep of a workload, or one
// io-serve rung of a rep. Each unit runs in its own process under a
// deadline, so a panic, a Go "all goroutines are asleep" fatal error or
// a hang fails that unit's ops while every other unit still reports.
type unit struct {
	workload *workload
	name     string // "kernel-mix", or "io-serve/150" for a rung
	rate     int    // io-serve rung, k requests per second
	ops      int    // ops the unit attempts
}

// unitResult is what a child prints, as the last line of its standard
// output, for the parent.
type unitResult struct {
	Ops int `json:"ops"`
	// SetupS and CPUS are host CPU seconds (user and system time of the
	// process) spent in set-up and in the timed sections; HostS is the
	// timed sections' wall time.
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
	HostS  float64 `json:"host_s"`
	AllocB uint64  `json:"alloc_bytes"`
	// Sim holds exact simulated results: identical for every rep of one
	// seed, traced or not.
	Sim map[string]float64 `json:"sim"`
	// Layer holds per-layer metrics (traced units only); RootMS is the
	// host duration of the unit's root span that the layers' self times
	// add up to.
	Layer  map[string]float64 `json:"layer,omitempty"`
	RootMS float64            `json:"root_ms,omitempty"`
	// Failed lists the correctness checks that did not hold.
	Failed []string `json:"failed,omitempty"`
}

// meter is a unit's view of the harness: it accumulates set-up and
// timed host time, host allocation over the timed sections, and failed
// checks, and carries the tracer (nil when untraced).
//
// Throughput and set-up are taken in CPU time, not wall time: on a
// shared host the share of a CPU the process gets swings by a third
// from one minute to the next, while the CPU time its work needs does
// not.
type meter struct {
	tr  *tracer
	res *unitResult

	t0     time.Time // start of the open timed section
	cpu0   float64
	alloc0 uint64
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("mercurybench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setup starts a set-up section; the returned func ends it.
func (m *meter) setup() func() {
	c0 := cpuSeconds()
	return func() { m.res.SetupS += cpuSeconds() - c0 }
}

// start opens a timed section; stop closes it. A unit may time several
// sections, leaving set-up and probes between them out.
func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0, m.t0, m.cpu0 = ms.TotalAlloc, time.Now(), cpuSeconds()
}

func (m *meter) stop() {
	m.res.HostS += time.Since(m.t0).Seconds()
	m.res.CPUS += cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.res.AllocB += ms.TotalAlloc - m.alloc0
}

// check records a failed correctness check when err is non-nil.
func (m *meter) check(err error) {
	if err != nil {
		m.res.Failed = append(m.res.Failed, err.Error())
	}
}

// sim records an exact simulated result; a result with no samples
// (NaN) fails the unit.
func (m *meter) sim(name string, v float64) {
	if math.IsNaN(v) {
		m.check(fmt.Errorf("%s: no samples", name))
		return
	}
	m.res.Sim[name] = v
}

// layer records a per-layer metric; untraced units record none, and one
// with no samples (NaN) is left out, so it reads 0.
func (m *meter) layer(name string, v float64) {
	if m.tr != nil && !math.IsNaN(v) {
		m.res.Layer[name] = v
	}
}

// us converts cycles of the default 3 GHz clock to microseconds.
func us(c hw.Cycles) float64 { return float64(c) / float64(hw.DefaultHz) * 1e6 }

// runUnitHere executes one unit in this process and returns its result.
func runUnitHere(u unit, seed int64, traced bool, traceDir string) (*unitResult, error) {
	m := &meter{res: &unitResult{Ops: u.ops, Sim: map[string]float64{}, Layer: map[string]float64{}}}
	if traced {
		m.tr = newTracer()
	}
	root := m.tr.begin("mercurybench", u.name, -1, 0)
	u.workload.run(u, seed, m)
	m.tr.end(root, 0)
	if m.tr == nil {
		return m.res, nil
	}
	for l, d := range m.tr.selfTimes() {
		m.res.Layer[l+".self_host_ms"] = float64(d) / 1e6
	}
	s := m.tr.spans[root]
	m.res.RootMS = float64(s.Host1-s.Host0) / 1e6
	spans, events := m.tr.dropped()
	m.res.Layer["obs.spans_dropped"] = float64(spans)
	m.res.Layer["obs.events_dropped"] = float64(events)
	if traceDir != "" {
		if err := m.tr.writeFiles(traceDir, u.name); err != nil {
			return nil, err
		}
	}
	return m.res, nil
}

// unitDeadline bounds one child. A unit normally takes about two host
// seconds; a unit that outlives this is hung or livelocked.
const unitDeadline = 30 * time.Second

// runChild runs argv as a child process under timeout and decodes the
// unitResult it prints last. On a crash or a timeout the error names
// the first repro/internal stack frame the child printed; a timed-out
// child gets SIGQUIT first, so the Go runtime dumps where it is stuck.
func runChild(argv []string, env []string, timeout time.Duration) (*unitResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	// The simulation drives one CPU from one goroutine at a time; a
	// second P would only add an idle GC worker whose CPU time swings
	// with the host's load.
	cmd.Env = append(append(os.Environ(), "GOMAXPROCS=1"), env...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("deadline %v exceeded: %s", timeout, crashReason(stderr.String()))
	}
	if runErr != nil {
		return nil, fmt.Errorf("%v: %s", runErr, crashReason(stderr.String()))
	}
	out := strings.TrimSpace(stdout.String())
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var res unitResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("decoding child result %q: %w", last, err)
	}
	return &res, nil
}

// crashReason condenses a Go crash report to its message and the first
// repro/internal frame of the crashing goroutine (the frame after the
// last panic call, so a panic re-raised by a recover names the original
// site).
func crashReason(stderr string) string {
	var msg, frame string
	afterPanic := false
	sc := bufio.NewScanner(strings.NewReader(stderr))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case msg == "" && (strings.HasPrefix(line, "panic: ") ||
			strings.HasPrefix(line, "fatal error: ") || strings.HasPrefix(line, "SIGQUIT")):
			msg = line
		case strings.HasPrefix(line, "goroutine ") && frame != "":
			return join(msg, frame) // only the first goroutine's stack
		case strings.HasPrefix(line, "panic("):
			afterPanic, frame = true, ""
		case strings.HasPrefix(line, "repro/internal/") && (frame == "" || afterPanic):
			frame, afterPanic = line[:max(strings.LastIndexByte(line, '('), 0)], false
		}
	}
	return join(msg, frame)
}

func join(msg, frame string) string {
	if msg == "" {
		msg = "no crash report"
	}
	if frame == "" {
		return msg
	}
	return msg + " at " + frame
}
