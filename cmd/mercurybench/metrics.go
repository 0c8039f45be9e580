package main

import (
	"fmt"
	"math"
	"sort"
)

// metric names one reported number, its unit, and which direction is
// better. These tables are the single source of the names and units the
// report, the -json output and the final result line use; the tests hold
// them equal to BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports from its untraced
// reps. Host metrics are medians over reps; simulated metrics are exact
// and identical in every rep of one seed.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"sim_op_p50_us", "us", "lower"},
	{"sim_op_p99_us", "us", "lower"},
}

// headline are the end-to-end metrics that exist only on some
// workloads: the paper's native/virtual taxes and switch latency, and
// the serving limit. fail_ratio is reported everywhere but is zero on a
// healthy run, so the result line carries it as attempted/failed.
var headline = []metric{
	{"fail_ratio", "ratio", "lower"},
	{"native_tax_pct", "%", "lower"},
	{"virtual_tax_pct", "%", "lower"},
	{"attach_us", "us", "lower"},
	{"detach_us", "us", "lower"},
	{"io_max_krps", "krps", "higher"},
}

// selfLayers are the layers whose calls the benchmark wraps in spans;
// each gets a <layer>.self_host_ms per-layer metric in a traced run.
var selfLayers = []string{
	"mercurybench", "bench", "guest", "core", "xen", "fork", "migrate",
	"workloads", "pgtable", "hw",
}

// attachPhases and detachPhases are the switch phases that take
// simulated time under direct paging (the shadow-paging phases are
// empty there and left out).
var (
	attachPhases = []string{"state-reload", "frame-recompute", "segment-pl-flip",
		"interrupt-rebind", "vo-relocate"}
	detachPhases = []string{"io-quiesce", "frame-release", "segment-pl-flip",
		"state-reload", "vo-relocate"}
)

// perLayer lists every per-layer metric. A traced run reports all of
// them for every workload; a layer the workload does not exercise reads
// 0. The comment on each group names the end-to-end metric it should
// move and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	m := []metric{
		// ops_per_cpu_s @ kernel-mix, switch-cycle (reads) and fork-clone.
		{"hw.physmem_read_ns", "ns", "lower"},
		{"hw.physmem_read_cow_ns", "ns", "lower"},
		{"hw.physmem_write_ns", "ns", "lower"},
		// ops_per_cpu_s @ io-serve.
		{"hw.charge_ns", "ns", "lower"},
		// sim_op_p50_us @ kernel-mix.
		{"hw.tlb_misses_per_op", "count/op", "lower"},
		{"hw.tlb_flushes_per_op", "count/op", "lower"},
		{"hw.interrupts_per_op", "count/op", "lower"},
		// ops_per_cpu_s @ kernel-mix.
		{"pgtable.table_frames", "count", "lower"},
		{"pgtable.visit_us", "us", "lower"},
		// sim_op_p50_us @ kernel-mix.
		{"vo.calls_per_op", "count/op", "lower"},
		{"vo.pte_writes_per_op", "count/op", "lower"},
		// virtual_tax_pct @ kernel-mix.
		{"xen.hypercalls_per_op", "count/op", "lower"},
		{"xen.mmu_updates_per_op", "count/op", "lower"},
		{"xen.fault_bounces_per_op", "count/op", "lower"},
		{"xen.multicall_ops_per_op", "count/op", "lower"},
		{"xen.hypercall_sim_cyc_p50", "cycles", "lower"},
		// sim_op_p99_us @ io-serve.
		{"xen.slots_per_doorbell", "ratio", "higher"},
		{"xen.forced_kicks", "count", "lower"},
		{"xen.backend_bursts", "count", "lower"},
	}
	// sim_op_p50_us / ops_per_cpu_s @ kernel-mix.
	for _, op := range mixClasses {
		m = append(m,
			metric{"guest." + op + ".sim_us_p50", "us", "lower"},
			metric{"guest." + op + ".host_us_p50", "us", "lower"})
	}
	m = append(m,
		metric{"guest.syscalls_per_op", "count/op", "lower"},
		metric{"guest.page_faults_per_op", "count/op", "lower"},
		// ops_per_cpu_s @ switch-cycle.
		metric{"core.attach.host_us_p50", "us", "lower"},
		metric{"core.detach.host_us_p50", "us", "lower"})
	// attach_us / detach_us @ switch-cycle.
	for _, ph := range attachPhases {
		m = append(m, metric{"core.attach." + ph + ".sim_us", "us", "lower"})
	}
	for _, ph := range detachPhases {
		m = append(m, metric{"core.detach." + ph + ".sim_us", "us", "lower"})
	}
	m = append(m,
		metric{"core.deferred", "count", "lower"},
		metric{"core.fixed_frames", "count", "lower"},
		// sim_op_p50_us / ops_per_cpu_s @ fork-clone.
		metric{"fork.clone.sim_us_p50", "us", "lower"},
		metric{"fork.delta.sim_us_p50", "us", "lower"},
		metric{"fork.clone.host_us_p50", "us", "lower"},
		metric{"fork.delta.host_us_p50", "us", "lower"},
		metric{"fork.destroy.host_us_p50", "us", "lower"},
		// alloc_kb_per_op @ fork-clone.
		metric{"fork.promoted_per_clone", "count", "lower"},
		metric{"fork.store_frames", "count", "lower"},
		metric{"fork.dedup_ratio", "ratio", "higher"},
		// setup_s @ fork-clone.
		metric{"migrate.checkpoint.host_ms", "ms", "lower"},
		metric{"fork.new_base.host_ms", "ms", "lower"})
	// io_max_krps and ops_per_cpu_s @ io-serve.
	for _, r := range ioRungs {
		m = append(m,
			metric{fmt.Sprintf("workloads.io.%d.p99_us", r), "us", "lower"},
			metric{fmt.Sprintf("workloads.io.%d.host_s", r), "s", "lower"})
	}
	// ops_per_cpu_s on the workload each is reported for.
	for _, l := range selfLayers {
		m = append(m, metric{l + ".self_host_ms", "ms", "lower"})
	}
	return append(m,
		// Must be 0 for the traced numbers to count.
		metric{"obs.spans_dropped", "count", "lower"},
		metric{"obs.events_dropped", "count", "lower"},
		metric{"mercurybench.trace_overhead_pct", "%", "lower"})
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. At q = 0.99 and n >= 1000 at
// least ten samples lie beyond it.
func rank(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
