package migrate

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/xen"
)

// Pre-copy bounds, Clark et al.'s settings at this scale: at most
// maxRounds iterative rounds, and stop-and-copy once a round leaves at
// most stopThreshold dirty pages. Transfers cross the Gigabit migration
// network (hw.Gigabit).
const (
	maxRounds     = 8
	stopThreshold = 16
)

// LiveConfig tunes the pre-copy algorithm. The zero value runs plain
// threshold-stopped pre-copy.
type LiveConfig struct {
	// DowntimeSLOCyc, when nonzero, makes the pre-copy loop bandwidth-
	// adaptive: each round estimates the downtime a stop-and-copy of
	// the current dirty set would cost and stops early once the
	// estimate fits the SLO — or once the dirty set has stopped
	// shrinking, when more rounds would only burn bandwidth.
	DowntimeSLOCyc hw.Cycles
	// Mutator, when set, is invoked between rounds to stand in for the
	// still-running guest dirtying memory.
	Mutator func(round int)
	// Inject, when set, arms hardware-layer fault injection (link
	// stall, mid-copy abort) for dependability campaigns.
	Inject *FaultInjection
}

// LiveReport describes one completed live migration (or, on error, how
// far the aborted transaction got before rolling back).
type LiveReport struct {
	Rounds       []RoundReport
	TotalPages   int
	DowntimeCyc  hw.Cycles // stop-and-copy duration (service interruption)
	TotalCyc     hw.Cycles
	DowntimeUSec float64
	TotalUSec    float64
	// Verified: the destination image was proven bit-identical (tables
	// relocated) before the source was destroyed.
	Verified bool
	// StopReason is why pre-copy ended: "threshold", "slo",
	// "diverging", or "max-rounds".
	StopReason string
	// RolledBack lists the journaled transaction steps that were undone
	// when the migration aborted (empty on success).
	RolledBack []string
}

// RoundReport is one pre-copy iteration.
type RoundReport struct {
	Round int
	Pages int
	// DirtyPages is the dirty-set size observed at the start of the
	// round (equal to Pages for pre-copy rounds; for the final entry it
	// is the stop-and-copy remainder).
	DirtyPages int
	// EstDowntimeCyc is the bandwidth-model estimate of what stopping
	// here would cost (0 for round 0).
	EstDowntimeCyc hw.Cycles
	// Decision is what the adaptive loop chose after this round:
	// "continue" or "stop-and-copy".
	Decision string
}

// Live migrates domain d from src to a fresh domain on dst using
// iterative pre-copy: round 0 transfers all touched memory while the
// guest keeps running (and dirtying pages, via cfg.Mutator); subsequent
// rounds transfer only what was dirtied; when the dirty set is small
// enough — or, with a downtime SLO configured, as soon as the estimated
// stop-and-copy cost fits it — the domain pauses, the remainder and
// vcpu state move, the destination image is verified against the source
// and its page-table roots re-pinned, and only then is the source
// destroyed and the domain resumed on the destination (§6.3: online
// maintenance migrates the execution environment to another machine).
//
// Every side effect is journaled in a migration transaction: on any
// failure the destination domain is destroyed and scrubbed, the source
// unpaused, and the dirty log disarmed, so an aborted migration leaves
// both machines exactly as they were.
func Live(c *hw.CPU, src *xen.VMM, caller, d *xen.Domain,
	dst *xen.VMM, dstCaller *xen.Domain, cfg LiveConfig) (*xen.Domain, *LiveReport, error) {

	if !src.Active {
		return nil, nil, fmt.Errorf("migrate: live migration requires an active source VMM")
	}
	if !dst.Active {
		return nil, nil, fmt.Errorf("migrate: live migration requires an active destination VMM")
	}
	lo, hi := d.Frames.Range()

	rep := &LiveReport{}
	start := c.Now()
	mem := src.M.Mem

	// Telemetry: gauges track the pre-copy convergence, the counters
	// total wire traffic and transaction outcomes, and the histogram
	// records downtimes.
	col := src.M.Telemetry()
	var roundsGauge, dirtyGauge *obs.Gauge
	var pagesSent, commits, rollbacks, verifyFails *obs.Counter
	var downtimeCyc *obs.Histogram
	if col != nil {
		r := col.Registry
		roundsGauge = r.Gauge("migrate", "precopy_rounds")
		dirtyGauge = r.Gauge("migrate", "dirty_pages_last_round")
		pagesSent = r.Counter("migrate", "pages_sent_total")
		commits = r.Counter("migrate", "commits_total")
		rollbacks = r.Counter("migrate", "rollbacks_total")
		verifyFails = r.Counter("migrate", "verify_failures_total")
		downtimeCyc = r.Histogram("migrate", "downtime_cycles")
	}
	root := obs.Begin(col, c.ID, c.Now(), "migrate/live")
	defer func() { root.EndArg(c.Now(), uint64(rep.TotalPages)) }()

	txn := BeginTxn("migrate " + d.Name)
	// abort rolls the journaled side effects back and reports the
	// failure. The rollback itself is spanned so campaigns can see its
	// cost; undo failures are joined into the returned error.
	abort := func(err error) (*xen.Domain, *LiveReport, error) {
		rep.RolledBack = txn.StepNames()
		sp := obs.Begin(col, c.ID, c.Now(), "migrate/rollback")
		rerr := txn.Rollback()
		sp.EndArg(c.Now(), uint64(len(rep.RolledBack)))
		if rollbacks != nil {
			rollbacks.Inc()
		}
		if rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		rep.TotalCyc = c.Now() - start
		rep.TotalUSec = float64(rep.TotalCyc) / float64(src.M.Hz) * 1e6
		return nil, rep, fmt.Errorf("migrate: aborted: %w", err)
	}

	into, err := dst.CreateDomain(d.Name+"-migrated", hi-lo, d.Privileged)
	if err != nil {
		return nil, nil, fmt.Errorf("migrate: allocating target domain: %w", err)
	}
	dLo, dHi := into.Frames.Range()
	delta := int64(dLo) - int64(lo)
	txn.Journal("create-destination", func() error {
		return dst.DestroyDomain(into.ID)
	})
	// Scrub whatever partial image landed in the destination partition
	// so an aborted migration cannot leak the guest's memory contents.
	txn.Journal("scrub-destination", func() error {
		for pfn := dLo; pfn < dHi; pfn++ {
			dst.M.Mem.ZeroFrame(pfn)
		}
		return nil
	})
	// The destination stays paused until the transaction commits:
	// resuming it any earlier would put two live copies in the world.
	if err := dst.HypDomctlPause(c, dstCaller, into.ID); err != nil {
		return abort(fmt.Errorf("pausing destination: %w", err))
	}

	// perPageCyc models the per-page stop-and-copy cost (memcpy, the
	// network stack's share, wire serialization) for the downtime
	// estimator; verifyCyc the fixed verification pass over the
	// partition that also runs inside the downtime window.
	wireCyc := hw.Cycles(uint64(hw.PageSize) * 8 * src.M.Hz / hw.Gigabit().BandwidthBps)
	perPageCyc := src.M.Costs.PageCopy + src.M.Costs.NetStackTx/4 + wireCyc
	verifyCyc := hw.Cycles(hi-lo) * (src.M.Costs.PageCopy / 4)

	sendPages := func(round int, pages []hw.PFN) error {
		sorted := make([]hw.PFN, len(pages))
		copy(sorted, pages)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, pfn := range sorted {
			if err := cfg.Inject.copyFault(round); err != nil {
				return err
			}
			tgt := hw.PFN(int64(pfn) + delta)
			copy(dst.M.Mem.FrameBytes(tgt), mem.FrameBytesRO(pfn))
			c.Charge(perPageCyc)
			rep.TotalPages++
			if pagesSent != nil {
				pagesSent.Inc()
			}
		}
		return nil
	}

	// Round 0: everything touched so far, with the dirty log armed so
	// concurrent writes are caught next round.
	mem.EnableDirtyLog()
	txn.Journal("arm-dirty-log", func() error {
		mem.DisableDirtyLog()
		return nil
	})
	var first []hw.PFN
	for pfn := lo; pfn < hi; pfn++ {
		if !bytesEqualZero(mem.FrameBytesRO(pfn)) {
			first = append(first, pfn)
		}
	}
	mem.CollectDirty() // discard dirt from our own scan
	if cfg.Mutator != nil {
		cfg.Mutator(0)
	}
	sp := obs.Begin(col, c.ID, c.Now(), "migrate/round")
	err = sendPages(0, first)
	sp.EndArg(c.Now(), uint64(len(first)))
	if err != nil {
		return abort(fmt.Errorf("round 0: %w", err))
	}
	rep.Rounds = append(rep.Rounds, RoundReport{
		Round: 0, Pages: len(first), DirtyPages: len(first), Decision: "continue"})
	if roundsGauge != nil {
		roundsGauge.Set(1)
	}

	// Iterative rounds: each collects the dirty set, estimates what
	// stopping now would cost, and either stops or copies another round.
	var dirty []hw.PFN
	prevDirty := 0
	stopRound := maxRounds + 1
	rep.StopReason = "max-rounds"
	for round := 1; round <= maxRounds; round++ {
		if cfg.Mutator != nil {
			cfg.Mutator(round)
		}
		dirty = filterRange(mem.CollectDirty(), lo, hi)
		if dirtyGauge != nil {
			dirtyGauge.Set(int64(len(dirty)))
		}
		est := hw.Cycles(len(dirty))*perPageCyc + verifyCyc
		stop := ""
		switch {
		case len(dirty) <= stopThreshold:
			stop = "threshold"
		case cfg.DowntimeSLOCyc > 0 && est <= cfg.DowntimeSLOCyc:
			stop = "slo"
		case cfg.DowntimeSLOCyc > 0 && prevDirty > 0 && len(dirty) >= prevDirty:
			// The writable working set is not shrinking: more rounds
			// will never meet the SLO, so stop before burning more
			// bandwidth (Clark et al.'s divergence cutoff).
			stop = "diverging"
		}
		if stop != "" {
			rep.StopReason = stop
			stopRound = round
			break
		}
		prevDirty = len(dirty)
		sp := obs.Begin(col, c.ID, c.Now(), "migrate/round")
		err = sendPages(round, dirty)
		sp.EndArg(c.Now(), uint64(len(dirty)))
		if err != nil {
			return abort(fmt.Errorf("round %d: %w", round, err))
		}
		rep.Rounds = append(rep.Rounds, RoundReport{
			Round: round, Pages: len(dirty), DirtyPages: len(dirty),
			EstDowntimeCyc: est, Decision: "continue"})
		if roundsGauge != nil {
			roundsGauge.Set(int64(round + 1))
		}
		dirty = nil
	}

	// Stop-and-copy: pause the source, transfer the remainder plus vcpu
	// state, relocate and re-pin the page tables, verify, and only then
	// commit. Everything in this window counts as downtime.
	stopStart := c.Now()
	stopSpan := obs.Begin(col, c.ID, stopStart, "migrate/stop-and-copy")
	defer func() { stopSpan.End(c.Now()) }()
	if err := src.HypDomctlPause(c, caller, d.ID); err != nil {
		return abort(fmt.Errorf("pausing source: %w", err))
	}
	txn.Journal("pause-source", func() error {
		return src.HypDomctlUnpause(c, caller, d.ID)
	})
	final := filterRange(mem.CollectDirty(), lo, hi)
	if len(final) == 0 {
		final = dirty
	} else {
		final = append(final, dirty...)
		final = dedup(final)
	}
	if err := sendPages(stopRound, final); err != nil {
		return abort(fmt.Errorf("stop-and-copy: %w", err))
	}
	rep.Rounds = append(rep.Rounds, RoundReport{
		Round: stopRound, Pages: len(final), DirtyPages: len(final),
		Decision: "stop-and-copy"})

	into.VCPU0().SetCR3(hw.PFN(int64(d.VCPU0().CR3()) + delta))
	into.VCPU0().SetVIF(d.VCPU0().VIF())
	roots := d.PinnedRoots()
	if delta != 0 {
		RelocateTables(c, dst.M.Mem, roots, delta)
	}
	// Re-pin the relocated roots under the destination VMM: this
	// validates the trees against its frame accounting and takes the
	// type refs the destination needs to police the new domain.
	if err := RepinRoots(c, txn, dst, into, roots, delta); err != nil {
		return abort(err)
	}

	// The commit-point check (§6.3 meets "On the Impossibility of a
	// Perfect Hypervisor"): prove the destination image matches before
	// destroying the only other copy.
	vsp := obs.Begin(col, c.ID, c.Now(), "migrate/verify")
	verr := verifyDestination(c, mem, dst.M.Mem, lo, hi, delta, roots)
	vsp.End(c.Now())
	if verr != nil {
		if verifyFails != nil {
			verifyFails.Inc()
		}
		return abort(verr)
	}
	rep.Verified = true

	if err := src.HypDomctlDestroy(c, caller, d.ID); err != nil {
		return abort(fmt.Errorf("destroying source: %w", err))
	}
	// Commit: the source is gone, the verified destination is the
	// system. Disarm the dirty log and resume the domain over there.
	txn.Commit()
	if commits != nil {
		commits.Inc()
	}
	mem.DisableDirtyLog()
	if err := dst.HypDomctlUnpause(c, dstCaller, into.ID); err != nil {
		// Post-commit: the migration itself held, the destination just
		// needs an operator unpause — report both facts.
		return into, rep, fmt.Errorf("migrate: committed but resuming destination failed: %w", err)
	}
	rep.DowntimeCyc = c.Now() - stopStart
	if downtimeCyc != nil {
		downtimeCyc.Observe(rep.DowntimeCyc)
	}
	rep.TotalCyc = c.Now() - start
	rep.DowntimeUSec = float64(rep.DowntimeCyc) / float64(src.M.Hz) * 1e6
	rep.TotalUSec = float64(rep.TotalCyc) / float64(src.M.Hz) * 1e6
	return into, rep, nil
}

func bytesEqualZero(b []byte) bool {
	for i := range b {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// filterRange returns the pfns inside [lo, hi) as a fresh slice. It
// must not compact in place (pfns[:0] aliasing): callers pass slices
// they still own — CollectDirty results are merged across rounds, and
// rewriting the input under the caller would corrupt the dirty set.
func filterRange(pfns []hw.PFN, lo, hi hw.PFN) []hw.PFN {
	out := make([]hw.PFN, 0, len(pfns))
	for _, p := range pfns {
		if p >= lo && p < hi {
			out = append(out, p)
		}
	}
	return out
}

// dedup returns the unique pfns, first occurrence order, as a fresh
// slice — same aliasing contract as filterRange.
func dedup(pfns []hw.PFN) []hw.PFN {
	seen := make(map[hw.PFN]bool, len(pfns))
	out := make([]hw.PFN, 0, len(pfns))
	for _, p := range pfns {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
