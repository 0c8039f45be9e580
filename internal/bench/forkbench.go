package bench

import (
	"fmt"
	"io"

	"repro/internal/fork"
	"repro/internal/hw"
)

// ForkPoint is one cell of the snapshot-cache fork sweep: Clones
// domains forked from one warmed base image of Pages live pages, each
// clone dirtying DirtyPages frames before a delta checkpoint. Every
// field, cycle means included, is exact: the simulation is
// deterministic.
type ForkPoint struct {
	Pages      int `json:"pages"`
	Clones     int `json:"clones"`
	DirtyPages int `json:"dirty_pages"`

	BaseFrames    int     `json:"base_frames"`        // unique frames in the base image
	StoreFrames   int     `json:"store_frames"`       // unique frames in the store at steady state
	StoreBytes    int     `json:"store_bytes"`        // deduplicated storage footprint
	SharedTotal   int     `json:"shared_total"`       // CoW mappings still live across all clones
	PromotedTotal int     `json:"promoted_total"`     // frames privatized by writes/relocation
	DeltaTotal    int     `json:"delta_frames_total"` // frames stored across all delta checkpoints
	DedupRatio    float64 `json:"dedup_ratio"`        // logical puts per unique stored frame
	RefLeaks      int     `json:"ref_leaks"`          // audit violations (must be 0)

	CloneCycMean uint64  `json:"clone_cyc_mean"`
	DeltaCycMean uint64  `json:"delta_cyc_mean"`
	CloneUSMean  float64 `json:"clone_us_mean"`
}

// The swept grid: clone-fleet sizes x per-clone dirty rates. The
// 1,000-clone column is the headline: a thousand domains from one
// image, each at roughly journal re-attach cost.
var (
	ForkPages  = []int{256}
	ForkClones = []int{16, 128, 1000}
	ForkDirty  = []int{0, 8, 32}
)

// ForkSweep runs the fork grid. Every point audits the store's
// refcounts against the live owners, so the sweep doubles as a leak
// check at scale.
func ForkSweep() ([]ForkPoint, error) {
	var pts []ForkPoint
	for _, pages := range ForkPages {
		for _, clones := range ForkClones {
			for _, dirty := range ForkDirty {
				pt, err := forkPoint(pages, clones, dirty)
				if err != nil {
					return nil, fmt.Errorf("bench: fork %dpg/%dclones/%ddirty: %w",
						pages, clones, dirty, err)
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

// forkPoint warms one base image and forks a fleet from it on a single
// machine, delta-checkpointing every clone.
func forkPoint(pages, clones, dirty int) (ForkPoint, error) {
	pt := ForkPoint{Pages: pages, Clones: clones, DirtyPages: dirty}

	h, cb, err := fork.NewTemplate(pages, clones)
	if err != nil {
		return pt, err
	}
	m, v, c, dom0, store, base := h.M, h.V, h.C, h.Dom0, cb.Store, cb.Img
	pt.BaseFrames = store.Frames()

	var cloneCyc, deltaCyc hw.Cycles
	css := make([]*fork.CloneState, 0, clones)
	overlays := make([]*fork.Overlay, 0, clones)
	for i := 0; i < clones; i++ {
		t0 := c.Now()
		cs, err := fork.Clone(c, v, dom0, cb, "clone")
		if err != nil {
			return pt, err
		}
		cloneCyc += c.Now() - t0
		css = append(css, cs)
		// Identical dirt across clones — a forked fleet running the same
		// workload writes the same pages the same way, and the cache
		// dedups it: only the first clone's dirt costs storage.
		for j := 0; j < dirty; j++ {
			m.Mem.WriteWord((cs.Lo + hw.PFN(j)).Addr(), uint32(0xD0000000)|uint32(j))
		}
		t0 = c.Now()
		o, err := fork.CheckpointDelta(c, v, dom0, cs)
		if err != nil {
			return pt, err
		}
		deltaCyc += c.Now() - t0
		overlays = append(overlays, o)
	}

	for _, cs := range css {
		pt.SharedTotal += cs.SharedCount()
		pt.PromotedTotal += cs.PromotedCount()
	}
	for _, o := range overlays {
		pt.DeltaTotal += o.DeltaFrames()
	}
	pt.StoreFrames = store.Frames()
	pt.StoreBytes = store.BytesStored()
	pt.DedupRatio = store.DedupRatio()
	holders := make([]fork.RefHolder, 0, 1+2*clones)
	holders = append(holders, base)
	for _, cs := range css {
		holders = append(holders, cs)
	}
	for _, o := range overlays {
		holders = append(holders, o)
	}
	if err := fork.AuditRefs(store, holders...); err != nil {
		pt.RefLeaks = 1
	}
	pt.CloneCycMean = uint64(cloneCyc) / uint64(clones)
	pt.DeltaCycMean = uint64(deltaCyc) / uint64(clones)
	pt.CloneUSMean = float64(pt.CloneCycMean) / float64(m.Hz) * 1e6
	return pt, nil
}

// WriteForkSweep renders the sweep as a table.
func WriteForkSweep(w io.Writer, pts []ForkPoint) {
	fmt.Fprintf(w, "CoW fork from a shared snapshot cache (stored bytes ~ dirtied frames)\n")
	fmt.Fprintf(w, "%6s %7s %6s %7s %8s %10s %7s %7s %7s %6s %11s %11s\n",
		"pages", "clones", "dirty", "base", "stored", "bytes", "shared", "promo", "delta", "dedup", "clone(cyc)", "delta(cyc)")
	for _, pt := range pts {
		fmt.Fprintf(w, "%6d %7d %6d %7d %8d %10d %7d %7d %7d %6.1f %11d %11d\n",
			pt.Pages, pt.Clones, pt.DirtyPages, pt.BaseFrames, pt.StoreFrames,
			pt.StoreBytes, pt.SharedTotal, pt.PromotedTotal, pt.DeltaTotal,
			pt.DedupRatio, pt.CloneCycMean, pt.DeltaCycMean)
	}
}

// ForkBaselineSchema versions the committed fork baseline.
const ForkBaselineSchema = "mercury-bench/fork/v1"

// ForkBaseline is the serialized sweep: committed at the repo root as
// BENCH_fork.json and diffed in CI like the other baselines.
type ForkBaseline struct {
	Schema string      `json:"schema"`
	Sweep  []ForkPoint `json:"sweep"`
}
