package divergence

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeterministicExactRows: two runs with the same seed must agree on
// every exact probe bit-for-bit — that is the property that lets CI
// diff a committed baseline at all.
func TestDeterministicExactRows(t *testing.T) {
	cfg := Config{Seed: 11, Ops: 100}
	a, b := run(t, cfg), run(t, cfg)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Metric != rb.Metric {
			t.Fatalf("row %d: metric %q vs %q", i, ra.Metric, rb.Metric)
		}
		if !ra.Exact {
			continue
		}
		if ra.NL != rb.NL || ra.MN != rb.MN || ra.MV != rb.MV {
			t.Errorf("exact row %s not reproducible: %+v vs %+v", ra.Metric, ra, rb)
		}
	}
	for i := range a.Switches {
		sa, sb := a.Switches[i], b.Switches[i]
		if sa.Attaches != sb.Attaches || sa.Detaches != sb.Detaches {
			t.Errorf("switch %s: counts differ across runs", sa.Policy)
		}
		if (sa.Journal == nil) != (sb.Journal == nil) {
			t.Fatalf("switch %s: journal presence differs", sa.Policy)
		}
		if sa.Journal != nil && *sa.Journal != *sb.Journal {
			t.Errorf("switch %s: journal %+v vs %+v", sa.Policy, *sa.Journal, *sb.Journal)
		}
	}
}

// TestNativeTaxWithinPaperClaim: the whole point of the observatory —
// Mercury's native mode must track native Linux to a few percent.
func TestNativeTaxWithinPaperClaim(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	if rep.NativeTaxPct > 3.0 {
		t.Errorf("native tax %.2f%% exceeds the paper's ~2-3%% claim", rep.NativeTaxPct)
	}
	if rep.NativeTaxPct < -3.0 {
		t.Errorf("native tax %.2f%% is implausibly negative", rep.NativeTaxPct)
	}
	// Virtual mode must actually cost something, or the probes are not
	// measuring anything.
	if rep.VirtualTaxPct <= rep.NativeTaxPct {
		t.Errorf("virtual tax %.2f%% <= native tax %.2f%%",
			rep.VirtualTaxPct, rep.NativeTaxPct)
	}
}

// gateDiff encodes both reports the way the committed baseline is
// written and returns bench.Diff's differences.
func gateDiff(t *testing.T, base, measured *Report) []string {
	t.Helper()
	b, err := bench.EncodeJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.EncodeJSON(measured)
	if err != nil {
		t.Fatal(err)
	}
	v, err := bench.Diff(b, m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCompareSelf: a second run of the same workload diffs clean
// against the first, which is what lets the gate be exact.
func TestCompareSelf(t *testing.T) {
	cfg := Config{Seed: 11, Ops: 100}
	if v := gateDiff(t, run(t, cfg), run(t, cfg)); len(v) != 0 {
		t.Fatalf("repeat run not clean: %v", v)
	}
}

// TestCompareDetectsPerturbations: exact-count drift, removed rows,
// cycle drift, journal changes, and a blown tax budget must each be
// caught — the first four by the diff, the last by CheckBudget.
func TestCompareDetectsPerturbations(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})

	perturb := func(mut func(r *Report)) []string {
		cp := *rep
		cp.Rows = append([]Row(nil), rep.Rows...)
		cp.Switches = append([]SwitchProbe(nil), rep.Switches...)
		mut(&cp)
		return gateDiff(t, rep, &cp)
	}

	if v := perturb(func(r *Report) { r.Rows[1].MN++ }); len(v) != 1 ||
		!strings.HasPrefix(v[0], "rows[1].mn: ") {
		t.Errorf("exact-count drift: got %q", v)
	}
	if v := perturb(func(r *Report) { r.Rows = r.Rows[1:] }); len(v) == 0 {
		t.Error("removed row not detected")
	}
	if v := perturb(func(r *Report) { r.Rows[0].MV++ }); len(v) != 1 ||
		!strings.HasPrefix(v[0], "rows[0].mv: ") {
		t.Errorf("one-cycle drift: got %q", v)
	}
	journaled := false
	v := perturb(func(r *Report) {
		for i := range r.Switches {
			if r.Switches[i].Journal != nil {
				j := *r.Switches[i].Journal
				j.Replays++
				r.Switches[i].Journal = &j
				journaled = true
			}
		}
	})
	if !journaled {
		t.Fatal("no switch probe carries a journal summary")
	}
	if len(v) == 0 || !strings.Contains(strings.Join(v, ";"), ".journal.replays: ") {
		t.Errorf("journal activity change: got %q", v)
	}

	blown := *rep
	blown.NativeTaxPct = NativeTaxBudgetPct + 1
	if err := blown.CheckBudget(); err == nil {
		t.Error("blown native-tax budget not detected")
	}
}

// TestBaselineRoundTrip: a report encoded as the committed baseline
// decodes back into a Report that re-encodes with no difference.
func TestBaselineRoundTrip(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	data, err := bench.EncodeJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v := gateDiff(t, rep, &back); len(v) != 0 {
		t.Fatalf("round-tripped baseline not clean: %v", v)
	}
}

// TestCompareRejectsWorkloadMismatch: a report of a different seed is
// named by its seed field, not hidden inside per-row drift.
func TestCompareRejectsWorkloadMismatch(t *testing.T) {
	a := &Report{Schema: ReportSchema, Seed: 1, Ops: 100}
	b := &Report{Schema: ReportSchema, Seed: 2, Ops: 100}
	want := []string{"seed: baseline 1, measured 2"}
	if v := gateDiff(t, a, b); !reflect.DeepEqual(v, want) {
		t.Fatalf("got %q, want %q", v, want)
	}
}

// TestNativeTaxBudget: a tax above NativeTaxBudgetPct fails the
// check; one at the budget passes.
func TestNativeTaxBudget(t *testing.T) {
	rep := &Report{NativeTaxPct: NativeTaxBudgetPct}
	if err := rep.CheckBudget(); err != nil {
		t.Fatalf("tax at the budget rejected: %v", err)
	}
	rep.NativeTaxPct = NativeTaxBudgetPct + 1
	if err := rep.CheckBudget(); err == nil {
		t.Fatal("tax above the budget accepted")
	}
}

// TestRenderers: the markdown table carries every row and the switch
// decomposition; the text renderer mentions both policies.
func TestRenderers(t *testing.T) {
	rep := run(t, Config{Seed: 11, Ops: 100})
	var md bytes.Buffer
	rep.WriteMarkdown(&md)
	s := md.String()
	if !strings.Contains(s, "(budget 3.00%)") {
		t.Error("markdown missing the native-tax budget")
	}
	if !strings.Contains(s, "| metric | N-L | M-N | M-V |") {
		t.Error("markdown missing transparency table header")
	}
	for _, row := range rep.Rows {
		if !strings.Contains(s, "| "+row.Metric+" |") {
			t.Errorf("markdown missing row %s", row.Metric)
		}
	}
	if !strings.Contains(s, "recompute") || !strings.Contains(s, "journal") {
		t.Error("markdown missing switch probes")
	}

	var txt bytes.Buffer
	rep.WriteText(&txt)
	if !strings.Contains(txt.String(), "switch[recompute]") ||
		!strings.Contains(txt.String(), "switch[journal]") {
		t.Error("text renderer missing switch probes")
	}
}

// TestSwitchProbeBreakdown: with residents holding page-table trees,
// the probe's attaches pay for the frame recompute, the journal's
// re-attach replays the toggled slots instead, and the phase rows are
// the whole switch — they sum exactly to the attach and detach totals.
func TestSwitchProbeBreakdown(t *testing.T) {
	cfg := Config{Seed: 11, Ops: 100}
	probes := map[core.TrackingPolicy]SwitchProbe{}
	for _, pol := range []core.TrackingPolicy{core.TrackRecompute, core.TrackJournal} {
		sp, err := switchProbe(pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probes[pol] = sp
		for _, dir := range []struct {
			phases []SwitchPhase
			total  uint64
			want   []string
		}{
			{sp.AttachPhases, sp.AttachCyc, []string{"phase/frame-recompute", "phase/segment-pl-flip"}},
			{sp.DetachPhases, sp.DetachCyc, []string{"phase/frame-release", "phase/segment-pl-flip"}},
		} {
			var sum uint64
			cyc := map[string]uint64{}
			for _, p := range dir.phases {
				sum += p.Cyc
				cyc[p.Name] = p.Cyc
			}
			if sum != dir.total {
				t.Errorf("%s: phases %v sum to %d, switch total %d", pol, dir.phases, sum, dir.total)
			}
			for _, name := range dir.want {
				if cyc[name] == 0 {
					t.Errorf("%s: no cycles in %s: %v", pol, name, dir.phases)
				}
			}
		}
	}
	// Both cold attaches are a full recompute, so the journal's lower
	// total is its re-attach's replay undercutting recompute's.
	rec, jnl := probes[core.TrackRecompute], probes[core.TrackJournal]
	if rec.AttachCyc <= jnl.AttachCyc {
		t.Errorf("recompute attaches %d cyc, journal %d: the replay saved nothing", rec.AttachCyc, jnl.AttachCyc)
	}
	if j := jnl.Journal; j == nil || j.Replays != 1 || j.ReplaySlots == 0 {
		t.Errorf("journal re-attach replayed no slots: %+v", j)
	}
}
