package migrate

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/xen"
)

// dstEnv builds an active destination VMM on its own machine.
func dstEnv(t *testing.T) (*xen.VMM, *xen.Domain, *hw.CPU) {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	return h.V, h.Dom0, h.C
}

// pinTree builds a tiny 2-level page-table tree in the guest and pins
// its root with the source VMM, so migrations exercise relocation,
// re-pinning, and the table half of verification.
func pinTree(t *testing.T, v *xen.VMM, guest *xen.Domain, c *hw.CPU) (root, data hw.PFN) {
	t.Helper()
	lo, _ := guest.Frames.Range()
	root, pt, data := lo+100, lo+101, lo+102
	hw.WritePTE(v.M.Mem, root, 3, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(v.M.Mem, pt, 7, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	v.M.Mem.WriteWord(data.Addr(), 0xFEED)
	guest.VCPU0().SetCR3(root)
	if err := v.HypPinTable(c, guest, root); err != nil {
		t.Fatal(err)
	}
	return root, data
}

// assertRolledBack checks the full rollback contract after a failed
// migration: the source domain survives running with its memory intact,
// the dirty log is disarmed, no destination domain leaked, no partial
// image remains on the destination, and both frame tables verify.
func assertRolledBack(t *testing.T, v1 *xen.VMM, guest *xen.Domain,
	v2 *xen.VMM, dstDomsBefore int, filled []hw.PFN) {
	t.Helper()
	if _, ok := v1.Domains[guest.ID]; !ok {
		t.Fatal("rollback lost the source domain")
	}
	if guest.State != xen.DomRunning {
		t.Fatalf("source left in state %v, want running", guest.State)
	}
	if v1.M.Mem.DirtyLogEnabled() {
		t.Fatal("dirty log left armed after rollback")
	}
	if n := len(v2.Domains); n != dstDomsBefore {
		t.Fatalf("destination has %d domains, want %d — a leak", n, dstDomsBefore)
	}
	for i, pfn := range filled {
		if got := v1.M.Mem.ReadWord(pfn.Addr() + 128); got != uint32(i) {
			t.Fatalf("source frame %d corrupted by aborted migration", pfn)
		}
	}
	// No partial image may survive on the destination: the pattern
	// written into the source frames must not appear anywhere in the
	// destination machine's memory.
	nf := hw.PFN(v2.FT.NumFrames())
	for pfn := hw.PFN(0); pfn < nf; pfn++ {
		b := v2.M.Mem.FrameBytesRO(pfn)
		for off := 0; off+4 <= len(b); off += 4 {
			w := uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
			if w&0xFF00_0000 == 0xAB00_0000 && w != 0xAB00_0000 {
				t.Fatalf("destination frame %d still holds source pattern %#x", pfn, w)
			}
		}
	}
	if err := v1.FT.CheckInvariants(); err != nil {
		t.Fatalf("source frame table after rollback: %v", err)
	}
	if err := v2.FT.CheckInvariants(); err != nil {
		t.Fatalf("destination frame table after rollback: %v", err)
	}
}

func TestTxnRollbackIsLIFOAndCommitIsFinal(t *testing.T) {
	var order []string
	txn := BeginTxn("test")
	for _, s := range []string{"a", "b", "c"} {
		s := s
		txn.Journal(s, func() error { order = append(order, s); return nil })
	}
	if got := txn.StepNames(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("step names: %v", got)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "c" || order[1] != "b" || order[2] != "a" {
		t.Fatalf("rollback order %v, want LIFO", order)
	}

	order = nil
	txn = BeginTxn("test")
	txn.Journal("x", func() error { order = append(order, "x"); return nil })
	txn.Commit()
	if !txn.Committed() {
		t.Fatal("not committed")
	}
	if err := txn.Rollback(); err != nil || len(order) != 0 {
		t.Fatalf("rollback after commit ran undos: %v, %v", order, err)
	}

	// Undo errors don't stop the ladder; they are joined.
	var ran bool
	txn = BeginTxn("test")
	txn.Journal("first", func() error { ran = true; return nil })
	txn.Journal("second", func() error { return fmt.Errorf("boom") })
	if err := txn.Rollback(); err == nil {
		t.Fatal("undo error swallowed")
	}
	if !ran {
		t.Fatal("ladder stopped at the failing undo")
	}
}

// liveFaultCases enumerates one fault per transaction step: every
// hypercall and copy step of the pipeline fails once, and every failure
// must roll back to a clean world.
func TestLiveRollbackAtEveryStep(t *testing.T) {
	cases := []struct {
		name string
		arm  func(v1, v2 *xen.VMM, cfg *LiveConfig)
	}{
		{"dest-pause-fail", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			v2.InjectPauseFailures(1)
		}},
		{"midcopy-abort", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			cfg.Inject = &FaultInjection{FailCopyAfterPages: 10}
		}},
		{"link-stall", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			cfg.Inject = &FaultInjection{StallLinkAfterRounds: 1}
		}},
		{"source-pause-fail", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			v1.InjectPauseFailures(1)
		}},
		{"dest-pin-fail", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			v2.InjectPinFailures(1)
		}},
		{"source-destroy-fail", func(v1, v2 *xen.VMM, cfg *LiveConfig) {
			v1.InjectDestroyFailures(1)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			v1, caller1, guest, c := env(t)
			filled := fill(v1, guest, 64)
			root, _ := pinTree(t, v1, guest, c)
			v2, caller2, _ := dstEnv(t)
			dstDoms := len(v2.Domains)

			var cfg LiveConfig
			// Keep a trickle of dirty pages flowing so round-indexed
			// faults (the link stall) have traffic to hit. Offset 8
			// stays clear of fill's payload at offset 128.
			lo, _ := guest.Frames.Range()
			cfg.Mutator = func(round int) {
				for i := 0; i < 8; i++ {
					pfn := lo + hw.PFN((round*7+i)%64)
					v1.M.Mem.WriteWord(pfn.Addr()+8, uint32(round*100+i))
				}
			}
			tc.arm(v1, v2, &cfg)
			into, rep, err := Live(c, v1, caller1, guest, v2, caller2, cfg)
			if err == nil {
				t.Fatal("migration committed despite injected fault")
			}
			if into != nil {
				t.Fatal("failed migration returned a domain")
			}
			if rep == nil || len(rep.RolledBack) == 0 {
				t.Fatalf("no rollback journal in report: %+v", rep)
			}
			assertRolledBack(t, v1, guest, v2, dstDoms, filled)
			if !guest.HasPinned(root) {
				t.Fatal("source lost its pinned root")
			}

			// Clear any leftover injection state and prove the retry
			// commits: an aborted maintenance window is postponed, not
			// lost.
			v1.InjectPauseFailures(0)
			v1.InjectDestroyFailures(0)
			v2.InjectPauseFailures(0)
			v2.InjectPinFailures(0)
			cfg.Inject = nil
			into, rep, err = Live(c, v1, caller1, guest, v2, caller2, cfg)
			if err != nil {
				t.Fatalf("retry after fault cleared: %v", err)
			}
			if !rep.Verified {
				t.Fatal("retry committed unverified")
			}
			if into.State != xen.DomRunning {
				t.Fatalf("migrated domain state %v", into.State)
			}
		})
	}
}

func TestLiveMigrationVerifiesAndRepins(t *testing.T) {
	v1, caller1, guest, c := env(t)
	fill(v1, guest, 64)
	lo, _ := guest.Frames.Range()
	root, data := pinTree(t, v1, guest, c)

	// Snapshot the source partition before migration: the destination
	// must be bit-identical (modulo relocated tables).
	srcCopy := make(map[hw.PFN][]byte)
	hi := lo + 1024
	for pfn := lo; pfn < hi; pfn++ {
		cp := make([]byte, hw.PageSize)
		copy(cp, v1.M.Mem.FrameBytesRO(pfn))
		srcCopy[pfn] = cp
	}

	v2, caller2, _ := dstEnv(t)
	into, rep, err := Live(c, v1, caller1, guest, v2, caller2, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("successful migration not marked verified")
	}
	if rep.StopReason != "threshold" {
		t.Fatalf("idle guest stop reason %q", rep.StopReason)
	}
	lo2, _ := into.Frames.Range()
	delta := int64(lo2) - int64(lo)
	newRoot := hw.PFN(int64(root) + delta)
	if !into.HasPinned(newRoot) {
		t.Fatal("relocated root not re-pinned on the destination domain")
	}
	if !v2.FT.Get(newRoot).Pinned {
		t.Fatal("destination frame table does not show the root pinned")
	}
	if into.VCPU0().CR3() != newRoot {
		t.Fatalf("CR3 = %d, want %d", into.VCPU0().CR3(), newRoot)
	}
	// Non-table frames are bit-identical; the relocated data frame
	// still carries its payload.
	tables := map[hw.PFN]bool{root: true, root + 1: true}
	for pfn, want := range srcCopy {
		if tables[pfn] {
			continue
		}
		got := v2.M.Mem.FrameBytesRO(hw.PFN(int64(pfn) + delta))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d byte %d diverges", pfn, i)
			}
		}
	}
	newData := hw.PFN(int64(data) + delta)
	if got := v2.M.Mem.ReadWord(newData.Addr()); got != 0xFEED {
		t.Fatalf("relocated data = %#x", got)
	}
	// Stop-and-copy is labelled with the round the stop decision was
	// made in, one past the last pre-copy round.
	last := rep.Rounds[len(rep.Rounds)-1]
	if last.Decision != "stop-and-copy" {
		t.Fatalf("final round decision %q", last.Decision)
	}
	if want := rep.Rounds[len(rep.Rounds)-2].Round + 1; last.Round != want {
		t.Fatalf("stop-and-copy labelled round %d, want %d", last.Round, want)
	}
}

func TestLiveAdaptiveStopsUnderSLO(t *testing.T) {
	v1, caller1, guest, c := env(t)
	fill(v1, guest, 256)
	lo, _ := guest.Frames.Range()

	v2, caller2, _ := dstEnv(t)
	var cfg LiveConfig
	// A workload dirtying far more than the threshold each round: the
	// fixed policy would run all 8 rounds; a generous SLO stops as soon
	// as the estimate fits.
	cfg.Mutator = func(round int) {
		for i := 0; i < 64; i++ {
			pfn := lo + hw.PFN((round*31+i)%256)
			v1.M.Mem.WriteWord(pfn.Addr()+8, uint32(round*100+i))
		}
	}
	cfg.DowntimeSLOCyc = 100_000_000 // generous: any dirty set fits
	_, rep, err := Live(c, v1, caller1, guest, v2, caller2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StopReason != "slo" {
		t.Fatalf("stop reason %q, want slo", rep.StopReason)
	}
	if !rep.Verified {
		t.Fatal("unverified")
	}
	if n := len(rep.Rounds); n != 2 {
		t.Fatalf("SLO stop took %d rounds, want round 0 + stop-and-copy", n)
	}

	// A hopeless SLO with a non-shrinking dirty set stops on divergence
	// instead of burning all 8 rounds.
	v1b, caller1b, guestb, cb := env(t)
	fill(v1b, guestb, 256)
	lob, _ := guestb.Frames.Range()
	v2b, caller2b, _ := dstEnv(t)
	var cfgb LiveConfig
	cfgb.Mutator = func(round int) {
		for i := 0; i < 64; i++ {
			pfn := lob + hw.PFN((round*31+i)%256)
			v1b.M.Mem.WriteWord(pfn.Addr()+8, uint32(round*100+i))
		}
	}
	cfgb.DowntimeSLOCyc = 1 // unmeetable
	_, repb, err := Live(cb, v1b, caller1b, guestb, v2b, caller2b, cfgb)
	if err != nil {
		t.Fatal(err)
	}
	if repb.StopReason != "diverging" {
		t.Fatalf("stop reason %q, want diverging", repb.StopReason)
	}
	if len(repb.Rounds) >= len(rep.Rounds)+8 {
		t.Fatalf("divergence cutoff never fired: %d rounds", len(repb.Rounds))
	}
}

func TestCheckpointUnpauseFailureReturnsImage(t *testing.T) {
	v, caller, guest, c := env(t)
	fill(v, guest, 32)
	v.InjectUnpauseFailures(1)
	img, err := Checkpoint(c, v, caller, guest)
	if err == nil {
		t.Fatal("unpause failure not reported")
	}
	if img == nil {
		t.Fatal("completed snapshot discarded on unpause failure")
	}
	if len(img.Pages) < 32 {
		t.Fatalf("image holds %d pages", len(img.Pages))
	}
	if guest.State != xen.DomPaused {
		t.Fatalf("guest state %v — the error must reflect reality", guest.State)
	}
	// The returned image is usable: restore it and resume.
	v.InjectUnpauseFailures(0)
	if err := Restore(c, v, caller, guest, img); err != nil {
		t.Fatal(err)
	}
	if guest.State != xen.DomRunning {
		t.Fatal("guest not resumed by restore")
	}
}

func TestRestoreRepinsRootsOnDestination(t *testing.T) {
	v1, caller1, guest1, c1 := env(t)
	root, data := pinTree(t, v1, guest1, c1)

	img, err := Checkpoint(c1, v1, caller1, guest1)
	if err != nil {
		t.Fatal(err)
	}

	v2, caller2, c2 := dstEnv(t)
	into, _ := v2.CreateDomain("incoming", 1024, false)

	if err := Restore(c2, v2, caller2, into, img); err != nil {
		t.Fatal(err)
	}
	lo1, _ := guest1.Frames.Range()
	lo2, _ := into.Frames.Range()
	delta := int64(lo2) - int64(lo1)
	newRoot := hw.PFN(int64(root) + delta)
	if !into.HasPinned(newRoot) {
		t.Fatal("restored root not re-pinned with the destination VMM")
	}
	if !v2.FT.Get(newRoot).Pinned {
		t.Fatal("destination frame table does not show the restored root pinned")
	}
	if into.State != xen.DomRunning {
		t.Fatalf("restored domain state %v", into.State)
	}
	newData := hw.PFN(int64(data) + delta)
	if got := v2.M.Mem.ReadWord(newData.Addr()); got != 0xFEED {
		t.Fatalf("restored data = %#x", got)
	}
}

func TestRestoreRollbackOnPinFailure(t *testing.T) {
	v1, caller1, guest1, c1 := env(t)
	pinTree(t, v1, guest1, c1)
	img, err := Checkpoint(c1, v1, caller1, guest1)
	if err != nil {
		t.Fatal(err)
	}

	v2, caller2, c2 := dstEnv(t)
	into, _ := v2.CreateDomain("incoming", 1024, false)

	v2.InjectPinFailures(1)
	if err := Restore(c2, v2, caller2, into, img); err == nil {
		t.Fatal("restore committed despite pin failure")
	}
	if into.State != xen.DomPaused {
		t.Fatalf("failed restore left domain %v, want paused", into.State)
	}
	if n := len(into.PinnedRoots()); n != 0 {
		t.Fatalf("failed restore left %d pinned roots", n)
	}
	// The laid-down image was scrubbed: no 0xFEED payload remains.
	lo2, hi2 := into.Frames.Range()
	for pfn := lo2; pfn < hi2; pfn++ {
		if got := v2.M.Mem.ReadWord(pfn.Addr()); got == 0xFEED {
			t.Fatalf("frame %d still holds restored payload after abort", pfn)
		}
	}
	if err := v2.FT.CheckInvariants(); err != nil {
		t.Fatalf("frame table after aborted restore: %v", err)
	}
	// Retry once the transient failure clears.
	if err := Restore(c2, v2, caller2, into, img); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if into.State != xen.DomRunning {
		t.Fatal("retried restore did not resume the domain")
	}
}

// Property: a successful live migration is an identity on guest memory
// — every frame arrives bit-identical at the relocated position — for
// arbitrary contents and dirty patterns.
func TestLiveMigrationIdentityProperty(t *testing.T) {
	f := func(seed uint32, words []uint32) bool {
		v1, caller1, guest, c := env(t)
		lo, _ := guest.Frames.Range()
		for i, w := range words {
			if i >= 512 {
				break
			}
			pfn := lo + hw.PFN(i%128)
			v1.M.Mem.WriteWord(pfn.Addr()+hw.PhysAddr((i%1000)*4), w^seed)
		}
		hi := lo + 1024
		before := make([][]byte, 0, 1024)
		for pfn := lo; pfn < hi; pfn++ {
			cp := make([]byte, hw.PageSize)
			copy(cp, v1.M.Mem.FrameBytesRO(pfn))
			before = append(before, cp)
		}
		v2, caller2, _ := dstEnv(t)
		into, rep, err := Live(c, v1, caller1, guest, v2, caller2, LiveConfig{})
		if err != nil || !rep.Verified {
			return false
		}
		lo2, _ := into.Frames.Range()
		for i, want := range before {
			got := v2.M.Mem.FrameBytesRO(lo2 + hw.PFN(i))
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
