package bench

import (
	"fmt"
	"io"

	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// MigratePoint is one cell of the §6.3 downtime/total-time sweep: a
// guest of Pages live pages dirtying DirtyPerRound pages per pre-copy
// round, migrated under a downtime SLO (0 = the fixed threshold-only
// policy).
type MigratePoint struct {
	Pages         int     `json:"pages"`
	DirtyPerRound int     `json:"dirty_per_round"`
	SLOUs         float64 `json:"slo_us"` // 0: no SLO (threshold/max-rounds only)

	Rounds      int    `json:"rounds"` // pre-copy rounds incl. round 0
	PagesSent   int    `json:"pages_sent"`
	DowntimeCyc uint64 `json:"downtime_cyc"`
	TotalCyc    uint64 `json:"total_cyc"`

	DowntimeUS float64 `json:"downtime_us"`
	TotalUS    float64 `json:"total_us"`
	StopReason string  `json:"stop_reason"`
	Verified   bool    `json:"verified"`
}

// The swept grid: guest sizes x dirty rates x downtime SLOs.
var (
	MigratePages  = []int{512, 2048}
	MigrateDirty  = []int{8, 64, 256}
	MigrateSLOsUS = []float64{0, 300, 3000}
)

// MigrateSweep runs the live-migration grid. Every migration must
// verify (the commit point rejects divergent images), so the sweep
// doubles as an end-to-end correctness pass; the simulation is
// deterministic, which is what makes the committed baseline meaningful.
func MigrateSweep() ([]MigratePoint, error) {
	var pts []MigratePoint
	for _, pages := range MigratePages {
		for _, dirty := range MigrateDirty {
			for _, slo := range MigrateSLOsUS {
				pt, err := migratePoint(pages, dirty, slo)
				if err != nil {
					return nil, fmt.Errorf("bench: migrate %dpg/%ddirty/slo=%.0fus: %w",
						pages, dirty, slo, err)
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

// migratePoint builds a fresh source and destination machine pair,
// migrates one guest between them, and records the trajectory.
func migratePoint(pages, dirtyPerRound int, sloUS float64) (MigratePoint, error) {
	pt := MigratePoint{Pages: pages, DirtyPerRound: dirtyPerRound, SLOUs: sloUS}

	src, err := xen.BootHost(hw.Config{Name: "mig-src", MemBytes: 64 << 20, NumCPUs: 1}, 512)
	if err != nil {
		return pt, err
	}
	dst, err := xen.BootHost(hw.Config{Name: "mig-dst", MemBytes: 64 << 20, NumCPUs: 1}, 512)
	if err != nil {
		return pt, err
	}
	guest, err := src.V.CreateDomain("job", hw.PFN(pages)+16, false)
	if err != nil {
		return pt, err
	}
	mem := src.M.Mem
	lo, _ := guest.Frames.Range()
	for i := 0; i < pages; i++ {
		mem.WriteWord((lo + hw.PFN(i)).Addr(), uint32(0xBE000000)|uint32(i))
	}

	var cfg migrate.LiveConfig
	cfg.DowntimeSLOCyc = hw.Cycles(sloUS / 1e6 * float64(src.M.Hz))
	cfg.Mutator = func(round int) {
		for i := 0; i < dirtyPerRound; i++ {
			pfn := lo + hw.PFN((round*97+i*13)%pages)
			mem.WriteWord(pfn.Addr()+4, uint32(round*1000+i))
		}
	}
	_, rep, err := migrate.Live(src.C, src.V, src.Dom0, guest, dst.V, dst.Dom0, cfg)
	if err != nil {
		return pt, err
	}
	pt.Rounds = len(rep.Rounds) - 1 // the last entry is stop-and-copy
	pt.PagesSent = rep.TotalPages
	pt.DowntimeCyc = uint64(rep.DowntimeCyc)
	pt.TotalCyc = uint64(rep.TotalCyc)
	pt.DowntimeUS = rep.DowntimeUSec
	pt.TotalUS = rep.TotalUSec
	pt.StopReason = rep.StopReason
	pt.Verified = rep.Verified
	return pt, nil
}

// WriteMigrateSweep renders the sweep as a table.
func WriteMigrateSweep(w io.Writer, pts []MigratePoint) {
	fmt.Fprintf(w, "Live-migration downtime vs dirty rate (verified pre-copy, Gigabit link)\n")
	fmt.Fprintf(w, "%7s %7s %9s %7s %7s %12s %10s %-10s %s\n",
		"pages", "dirty/r", "slo(us)", "rounds", "sent", "downtime(us)", "total(us)", "stop", "verified")
	for _, pt := range pts {
		fmt.Fprintf(w, "%7d %7d %9.0f %7d %7d %12.1f %10.1f %-10s %v\n",
			pt.Pages, pt.DirtyPerRound, pt.SLOUs, pt.Rounds, pt.PagesSent,
			pt.DowntimeUS, pt.TotalUS, pt.StopReason, pt.Verified)
	}
}

// MigrateBaselineSchema versions the committed migration baseline.
const MigrateBaselineSchema = "mercury-bench/migrate/v1"

// MigrateBaseline is the serialized sweep: committed at the repo root
// as BENCH_migrate.json and diffed in CI like the switch baseline.
type MigrateBaseline struct {
	Schema string         `json:"schema"`
	Sweep  []MigratePoint `json:"sweep"`
}
