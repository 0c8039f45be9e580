package divergence

import (
	"fmt"
	"io"
)

// ReportSchema versions the baseline format. v2: lazy-MMU batching on,
// multicall rows added.
const ReportSchema = 2

// NativeTaxBudgetPct is the ceiling on the measured native tax: the
// paper's ~2–3% native-mode claim (§7.2), enforced by CheckBudget.
const NativeTaxBudgetPct = 3.0

// Row is one transparency-table line: a probe's value on each measured
// configuration, with the Mercury columns expressed as a percentage tax
// over native Linux.
type Row struct {
	Metric string `json:"metric"`
	// Exact marks logical counts the workload seed alone determines;
	// the other rows are time-derived.
	Exact    bool    `json:"exact"`
	NL       uint64  `json:"nl"`
	MN       uint64  `json:"mn"`
	MV       uint64  `json:"mv"`
	MNTaxPct float64 `json:"mn_tax_pct"`
	MVTaxPct float64 `json:"mv_tax_pct"`
}

// SwitchPhase is one phase of the mode-switch decomposition.
type SwitchPhase struct {
	Name string `json:"name"`
	Cyc  uint64 `json:"cyc"`
}

// JournalSummary is the dirty-frame journal's activity over a switch
// probe's two round trips. All fields are exact: journal behaviour is seed-determined.
type JournalSummary struct {
	Appends     uint64 `json:"appends"`
	Replays     uint64 `json:"replays"`
	ReplaySlots uint64 `json:"replay_slots"`
	Fallbacks   uint64 `json:"fallbacks"`
	Overflows   uint64 `json:"overflows"`
}

// SwitchProbe decomposes two attach/detach round trips under one
// tracking policy: a cold attach, then a re-attach after a light native
// episode.
type SwitchProbe struct {
	Policy string `json:"policy"`

	Attaches  int    `json:"attaches"`
	Detaches  int    `json:"detaches"`
	AttachCyc uint64 `json:"attach_cyc"`
	DetachCyc uint64 `json:"detach_cyc"`

	AttachPhases []SwitchPhase `json:"attach_phases"`
	DetachPhases []SwitchPhase `json:"detach_phases"`

	// TLBFlushes covers both round trips on the switching CPU, the
	// virtual stretch and the native episode between them included.
	TLBFlushes uint64 `json:"tlb_flushes"`

	// Journal is non-nil under the journal tracking policy.
	Journal *JournalSummary `json:"journal,omitempty"`
}

// Report is the observatory's output — and, committed as
// BENCH_divergence.json, the baseline `benchtab -exp divergence` diffs
// against.
type Report struct {
	Schema int   `json:"schema"`
	Seed   int64 `json:"seed"`
	Ops    int   `json:"ops"`

	Rows     []Row         `json:"rows"`
	Switches []SwitchProbe `json:"switches"`

	// NativeTaxPct is the headline: M-N workload slowdown over N-L.
	// VirtualTaxPct is the same for M-V.
	NativeTaxPct  float64 `json:"native_tax_pct"`
	VirtualTaxPct float64 `json:"virtual_tax_pct"`
}

// CheckBudget errors when the native tax exceeds NativeTaxBudgetPct.
func (r *Report) CheckBudget() error {
	if r.NativeTaxPct > NativeTaxBudgetPct {
		return fmt.Errorf("divergence: native tax %.2f%% exceeds the %.2f%% budget (paper claims ~2-3%%)",
			r.NativeTaxPct, NativeTaxBudgetPct)
	}
	return nil
}

// WriteMarkdown renders the transparency table and switch decomposition
// for EXPERIMENTS.md.
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### Divergence audit (seed %d, %d ops)\n\n", r.Seed, r.Ops)
	fmt.Fprintf(w, "Native tax (M-N over N-L): **%.2f%%** (budget %.2f%%) — virtual tax (M-V over N-L): **%.2f%%**\n\n",
		r.NativeTaxPct, NativeTaxBudgetPct, r.VirtualTaxPct)

	fmt.Fprintf(w, "| metric | N-L | M-N | M-V | M-N tax %% | M-V tax %% | exact |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|:---:|\n")
	for _, row := range r.Rows {
		exact := ""
		if row.Exact {
			exact = "✓"
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %+.2f | %+.2f | %s |\n",
			row.Metric, row.NL, row.MN, row.MV, row.MNTaxPct, row.MVTaxPct, exact)
	}
	fmt.Fprintln(w)

	for _, s := range r.Switches {
		fmt.Fprintf(w, "**Mode switch (%s policy):** attach %d cyc over %d attaches, detach %d cyc over %d detaches, %d TLB flushes in the switched window\n\n",
			s.Policy, s.AttachCyc, s.Attaches, s.DetachCyc, s.Detaches, s.TLBFlushes)
		fmt.Fprintf(w, "| phase | cycles |\n|---|---:|\n")
		for _, p := range s.AttachPhases {
			fmt.Fprintf(w, "| attach/%s | %d |\n", p.Name, p.Cyc)
		}
		for _, p := range s.DetachPhases {
			fmt.Fprintf(w, "| detach/%s | %d |\n", p.Name, p.Cyc)
		}
		if s.Journal != nil {
			fmt.Fprintf(w, "\nJournal: %d appends, %d replays (%d slots), %d fallbacks, %d overflows\n",
				s.Journal.Appends, s.Journal.Replays, s.Journal.ReplaySlots,
				s.Journal.Fallbacks, s.Journal.Overflows)
		}
		fmt.Fprintln(w)
	}
}

// WriteText renders a terse fixed-width summary for terminal output.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "divergence: seed %d, %d ops\n", r.Seed, r.Ops)
	fmt.Fprintf(w, "native tax %.2f%%  virtual tax %.2f%%  (budget %.2f%%)\n",
		r.NativeTaxPct, r.VirtualTaxPct, NativeTaxBudgetPct)
	fmt.Fprintf(w, "%-22s %12s %12s %12s %9s %9s %s\n",
		"metric", "N-L", "M-N", "M-V", "M-N tax", "M-V tax", "exact")
	for _, row := range r.Rows {
		exact := ""
		if row.Exact {
			exact = "exact"
		}
		fmt.Fprintf(w, "%-22s %12d %12d %12d %8.2f%% %8.2f%% %s\n",
			row.Metric, row.NL, row.MN, row.MV, row.MNTaxPct, row.MVTaxPct, exact)
	}
	for _, s := range r.Switches {
		fmt.Fprintf(w, "switch[%s]: attach %d cyc detach %d cyc tlb-flushes %d",
			s.Policy, s.AttachCyc, s.DetachCyc, s.TLBFlushes)
		if s.Journal != nil {
			fmt.Fprintf(w, " journal{appends %d replays %d slots %d}",
				s.Journal.Appends, s.Journal.Replays, s.Journal.ReplaySlots)
		}
		fmt.Fprintln(w)
	}
}
