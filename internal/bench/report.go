package bench

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable renders a TableResult in the paper's layout.
func WriteTable(w io.Writer, t TableResult) {
	fmt.Fprintln(w, t.Name)
	fmt.Fprintf(w, "%-16s", "Config.")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%10s", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 16+10*len(t.Columns)))
	for i, row := range t.Rows {
		fmt.Fprintf(w, "%-16s", row)
		for j := range t.Columns {
			v := t.Values[i][j]
			switch {
			case v >= 100:
				fmt.Fprintf(w, "%10.0f", v)
			case v >= 10:
				fmt.Fprintf(w, "%10.2f", v)
			default:
				fmt.Fprintf(w, "%10.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure renders a FigureResult as the paper's bar-chart data:
// relative performance normalized to N-L.
func WriteFigure(w io.Writer, f FigureResult) {
	fmt.Fprintln(w, f.Name)
	fmt.Fprintf(w, "%-14s", "Benchmark")
	for _, sk := range f.Systems {
		fmt.Fprintf(w, "%8s", sk)
	}
	fmt.Fprintf(w, "    raw(N-L)\n")
	fmt.Fprintln(w, strings.Repeat("-", 14+8*len(f.Systems)+12))
	for i, b := range f.Benchmarks {
		fmt.Fprintf(w, "%-14s", b)
		for j := range f.Systems {
			fmt.Fprintf(w, "%8.3f", f.Relative[i][j])
		}
		fmt.Fprintf(w, "    %.1f %s\n", f.Raw[i][0], f.RawUnit[i])
	}
}

// WriteSwitch renders mode-switch timings.
func WriteSwitch(w io.Writer, r SwitchResult) {
	fmt.Fprintf(w, "Mode switch time (policy=%v, %d samples):\n", r.Policy, r.Samples)
	fmt.Fprintf(w, "  native -> virtual : %8.3f ms  (paper: ~0.22 ms)\n", r.ToVirtualMicros/1000)
	fmt.Fprintf(w, "  virtual -> native : %8.3f ms  (paper: ~0.06 ms)\n", r.ToNativeMicros/1000)
	fmt.Fprintf(w, "  deferred commits  : %d, saved frames patched: %d\n", r.Deferred, r.FixedFrames)
}

// WriteAblation renders the tracking-policy ablation.
func WriteAblation(w io.Writer, a AblationResult) {
	fmt.Fprintln(w, "Frame-tracking policy ablation (S5.1.2):")
	fmt.Fprintf(w, "  native pt-heavy loop, recompute policy: %10.1f us\n", a.RecomputeNativeUS)
	fmt.Fprintf(w, "  native pt-heavy loop, active tracking : %10.1f us  (+%.1f%%, paper: 2-3%%)\n",
		a.ActiveNativeUS, a.OverheadPct)
	fmt.Fprintf(w, "  attach time, recompute policy         : %10.1f us\n", a.RecomputeAttachUS)
	fmt.Fprintf(w, "  attach time, active tracking          : %10.1f us\n", a.ActiveAttachUS)
}
