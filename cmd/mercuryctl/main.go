// mercuryctl drives a simulated Mercury system (or a fleet of them) from
// the command line. Each subcommand parses its own flags, after the
// subcommand word:
//
//	mercuryctl stats             # run a workload, print the metrics
//	                             # registry (Prometheus text format)
//	mercuryctl trace -o t.json   # record spans, export Chrome
//	                             # trace_event JSON
//	mercuryctl chaos -seed 42    # seeded fault-injection campaign:
//	                             # episode table + dependability report
//	mercuryctl fleet -nodes 50   # rolling-maintenance wave over a fleet
//	mercuryctl fleet -action top # periodic per-node fleet snapshot
//	mercuryctl events -kind admission-grant
//	                             # flight-recorder dump, filterable by
//	                             # kind/node, text or -json
//	mercuryctl fork -clones 1000 # fork a fleet of CoW clones from one
//	                             # snapshot, report cache dedup + cost
//	mercuryctl io -queues 4      # split-device I/O datapath demo: M-N vs
//	                             # M-V multi-queue rings, then a mode
//	                             # switch under load with tail latency
//	mercuryctl mc                # model-check the mode-switch protocol:
//	                             # exhaustive interleaving exploration
//	mercuryctl mc -seed-bug toctou -expect commit-with-refcount-held -trace
//	                             # rediscover a seeded regression and
//	                             # replay its minimal counterexample
//
// A subcommand that finds a failure (a verdict other than -expect, an
// aborted wave, a broken audit) exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// commands maps each subcommand word to its implementation. A command
// parses its own flags from args and writes its report to w.
var commands = map[string]func(args []string, w io.Writer) error{
	"stats":  statsCmd,
	"trace":  traceCmd,
	"chaos":  chaosCmd,
	"fleet":  fleetCmd,
	"events": eventsCmd,
	"fork":   forkCmd,
	"io":     ioCmd,
	"mc":     mcCmd,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mercuryctl: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run dispatches args[0] to its subcommand.
func run(args []string, w io.Writer) error {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(args) == 0 {
		return fmt.Errorf("usage: mercuryctl <subcommand> [flags]; subcommands: %s",
			strings.Join(names, ", "))
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want %s)", args[0], strings.Join(names, ", "))
	}
	return cmd(args[1:], w)
}

// parseFlags parses a subcommand's flags and rejects stray arguments.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// trackingFlag registers -tracking on fs, storing the parsed policy in
// pol (zero value: recompute).
func trackingFlag(fs *flag.FlagSet, pol *core.TrackingPolicy) {
	fs.Func("tracking", "frame tracking policy: recompute, active or journal (default recompute)",
		func(s string) (err error) {
			*pol, err = core.ParseTrackingPolicy(s)
			return err
		})
}

// boot boots a Mercury system configured by cfg on a default machine
// with ncpu CPUs and the telemetry collector col (nil for none). The
// collector is installed before boot so boot-time instrumentation (the
// vo objects) registers into it.
func boot(ncpu int, cfg core.Config, col *obs.Collector) (*core.Mercury, error) {
	hcfg := hw.DefaultConfig()
	hcfg.NumCPUs = ncpu
	cfg.Machine = hw.NewMachine(hcfg)
	cfg.Machine.SetTelemetry(col)
	return core.New(cfg)
}

// statsCmd runs a mixed workload with telemetry installed and prints
// the whole metrics registry in the Prometheus text format. The
// workload exercises file I/O, memory mapping, a mode-switch round trip
// and process lifecycle: enough to touch every instrumented subsystem.
func statsCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	ncpu := fs.Int("cpus", 1, "number of CPUs")
	var pol core.TrackingPolicy
	trackingFlag(fs, &pol)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	col := obs.New(*ncpu)
	mc, err := boot(*ncpu, core.Config{Policy: pol}, col)
	if err != nil {
		return err
	}
	boot := mc.M.BootCPU()
	mc.K.Spawn(boot, "mix", guest.DefaultImage("mix"), func(p *guest.Proc) {
		fd, _ := p.Creat("/data")
		p.Write(fd, 256<<10)
		p.Close(fd)
		base := p.Mmap(64, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(base, 64, true)
		if err = mc.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
			return
		}
		p.Touch(base, 64, false)
		if err = mc.SwitchSync(p.CPU(), core.ModeNative); err != nil {
			return
		}
		p.Fork("child", func(cp *guest.Proc) { cp.Exit(0) })
		p.Wait()
	})
	mc.K.Run(boot)
	if err != nil {
		return err
	}
	col.Registry.WriteProm(w)
	return nil
}

// traceCmd records the spans of an attach/host/destroy/detach cycle —
// mode switch phases, hypercalls, pins, event sends — and writes a
// Chrome trace_event file (load it in chrome://tracing or Perfetto).
func traceCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output file")
	ncpu := fs.Int("cpus", 1, "number of CPUs")
	var pol core.TrackingPolicy
	trackingFlag(fs, &pol)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	col := obs.New(*ncpu)
	mc, err := boot(*ncpu, core.Config{Policy: pol}, col)
	if err != nil {
		return err
	}
	c := mc.M.BootCPU()
	if err := mc.SwitchSync(c, core.ModePartialVirtual); err != nil {
		return err
	}
	domU, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "guest", 256)
	if err != nil {
		return err
	}
	if err := mc.VMM.HypDomctlDestroy(c, mc.Dom, domU.ID); err != nil {
		return err
	}
	if err := mc.SwitchSync(c, core.ModeNative); err != nil {
		return err
	}

	spans := col.Tracer.Spans()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, mc.M.Hz, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d spans (%d over budget)\n", *out, len(spans), col.Tracer.Dropped())
	return nil
}

// chaosCmd runs the seeded fault-injection campaign, io fault classes
// included, and prints the episode table, the dependability summary and
// how often each class was drawn. Same seed, same machine: same
// episodes.
func chaosCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "campaign seed")
	episodes := fs.Int("episodes", 16, "campaign episodes")
	migrateFaults := fs.Bool("migrate", false, "add a standby node and the migration fault classes")
	ncpu := fs.Int("cpus", 1, "number of CPUs")
	var pol core.TrackingPolicy
	trackingFlag(fs, &pol)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// A small deferral budget keeps starved-switch episodes to a few
	// simulated ticks.
	mc, err := boot(*ncpu, core.Config{Policy: pol, MaxDeferrals: 8}, nil)
	if err != nil {
		return err
	}
	ccfg := chaos.DefaultConfig(*seed)
	if *episodes > 0 {
		ccfg.Episodes = *episodes
	}
	// A split-device node, so the campaign draws the io fault classes.
	if ccfg.IO, err = chaos.NewIOEnv(); err != nil {
		return err
	}
	if *migrateFaults {
		if ccfg.Standby, err = xen.BootHost(hw.Config{Name: "standby", MemBytes: 128 << 20, NumCPUs: 1}, 2048); err != nil {
			return err
		}
	}
	rep, err := chaos.Run(mc, ccfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, chaos.FormatEpisodes(rep))
	fmt.Fprintln(w, rep.Summary())
	fmt.Fprintln(w, rep.Draws())
	fmt.Fprintf(w, "%d fault classes; switch stats: attaches=%d detaches=%d deferred=%d starved=%d failed=%d\n",
		rep.FaultClasses(), mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load(),
		mc.Stats.Deferred.Load(), mc.Stats.StarvedSwitches.Load(),
		mc.Stats.FailedSwitches.Load())
	return nil
}
