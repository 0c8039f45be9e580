package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/hw"
	"repro/internal/workloads"
)

// ioCmd demonstrates the split-device I/O datapath: an open-loop
// request stream served natively (M-N), then through the multi-queue
// rings with coalesced doorbells (M-V), then through M-V again with a
// mode switch fired while requests are in flight — the tail-latency
// story of leaving virtual mode under load.
func ioCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("io", flag.ContinueOnError)
	queues := fs.Int("queues", 2, "multi-queue ring count")
	depth := fs.Int("iodepth", 64, "ring depth per queue, slots")
	requests := fs.Int("requests", 2000, "open-loop requests to issue")
	arrival := fs.Int("ioarrival", 6000, "mean inter-arrival gap, cycles")
	writes := fs.Int("writes", 50, "write percentage of the request mix")
	seed := fs.Int64("ioseed", 42, "arrival schedule and mix seed")
	noswitch := fs.Bool("noswitch", false, "skip the mid-run V->N mode switch")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *queues < 1 || *depth < 2 || *requests < 1 {
		return fmt.Errorf("io: need queues >= 1, depth >= 2, requests >= 1")
	}
	base := workloads.IOConfig{
		Queues: *queues, Depth: *depth, Requests: *requests,
		MeanArrival: hw.Cycles(*arrival), ReadPct: 100 - *writes, Seed: *seed,
	}
	hz := hw.DefaultHz
	us := func(cyc hw.Cycles) float64 { return float64(cyc) / float64(hz) * 1e6 }

	nat, err := workloads.RunIOServer(base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "M-N native: %d requests, p50=%.1f p99=%.1f p999=%.1f us\n",
		nat.Completed, us(nat.P50), us(nat.P99), us(nat.P999))

	vcfg := base
	vcfg.Virtual = true
	virt, err := workloads.RunIOServer(vcfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "M-V split:  %d requests over %d queue(s) x %d slots, p50=%.1f p99=%.1f p999=%.1f us\n",
		virt.Completed, *queues, *depth, us(virt.P50), us(virt.P99), us(virt.P999))
	fmt.Fprintf(w, "  doorbells: %d slots moved for %d kicks (+%d forced) — %.1f slots/doorbell\n",
		virt.ReqSlots+virt.RespSlots, virt.ReqKicks+virt.RespKicks,
		virt.ForcedKicks, virt.SuppressionRatio)
	fmt.Fprintf(w, "  backend: %d doorbell upcalls, %d bursts served as a scheduled domain\n",
		virt.BackendEvents, virt.BackendBursts)

	if *noswitch {
		return nil
	}
	scfg := vcfg
	scfg.SwitchMid = true
	sw, err := workloads.RunIOServer(scfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "M-V with V->N switch at 50%% completion:\n")
	fmt.Fprintf(w, "  switch window %.1f us; %d in-flight requests crossed it: p50=%.1f p99=%.1f p999=%.1f us\n",
		us(sw.SwitchCyc), sw.WindowRequests,
		us(sw.WindowP50), us(sw.WindowP99), us(sw.WindowP999))
	fmt.Fprintf(w, "  exactly-once: %d submitted, %d completed, %d duplicated, %d lost; final mode %s\n",
		sw.Submitted, sw.Completed, sw.Duplicates, sw.Lost, sw.FinalMode)
	if sw.Duplicates != 0 || sw.Lost != 0 || sw.Completed != sw.Submitted {
		return fmt.Errorf("io: exactly-once violated")
	}
	return nil
}
