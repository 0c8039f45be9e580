package bench

import "repro/internal/obs"

// Span-trace post-processing for the benchmark harness: aggregating the
// mode-switch phase decomposition out of a collector's span trace.

// PhaseStat aggregates one phase across all switches of one direction.
type PhaseStat struct {
	Name     string
	Count    int
	TotalCyc uint64
}

// PhaseBreakdown sums the direct child spans of every root span named
// rootName ("switch/attach" or "switch/detach") in the trace, plus the
// roots' own totals. Only successful switches (root Arg == 0) count.
// The returned phases are ordered by first appearance, matching the
// execution order inside the switch ISR.
func PhaseBreakdown(spans []obs.Span, rootName string) (phases []PhaseStat, rootTotal uint64, rootCount int) {
	roots := make(map[uint64]bool)
	for _, s := range spans {
		if s.Name == rootName && s.Arg == 0 && s.Kind() == obs.SpanDur {
			roots[s.ID] = true
			rootTotal += s.Dur()
			rootCount++
		}
	}
	idx := make(map[string]int)
	for _, s := range spans {
		if !roots[s.Parent] || s.Kind() != obs.SpanDur {
			continue
		}
		i, ok := idx[s.Name]
		if !ok {
			i = len(phases)
			idx[s.Name] = i
			phases = append(phases, PhaseStat{Name: s.Name})
		}
		phases[i].Count++
		phases[i].TotalCyc += s.Dur()
	}
	return phases, rootTotal, rootCount
}
