package migrate

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/pgtable"
	"repro/internal/xen"
)

// Txn is the migration transaction: a LIFO journal of undo actions, one
// per side effect (destination domain creation, dirty-log arming, source
// pause, partial page copies, root re-pinning). Any failure before the
// commit point rolls the whole ladder back, restoring the pre-migration
// state; Commit discards the ladder once the destination image has been
// verified and the source destroyed.
type Txn struct {
	name      string
	steps     []txnStep
	committed bool
}

type txnStep struct {
	name string
	undo func() error
}

// BeginTxn opens a named transaction with an empty undo ladder.
func BeginTxn(name string) *Txn { return &Txn{name: name} }

// Journal records one side effect and the action that reverses it.
func (t *Txn) Journal(step string, undo func() error) {
	t.steps = append(t.steps, txnStep{name: step, undo: undo})
}

// Commit marks the transaction successful: the journaled side effects
// become permanent and Rollback turns into a no-op.
func (t *Txn) Commit() { t.committed = true; t.steps = nil }

// Committed reports whether Commit ran.
func (t *Txn) Committed() bool { return t.committed }

// StepNames lists the journaled steps, oldest first.
func (t *Txn) StepNames() []string {
	out := make([]string, len(t.steps))
	for i, s := range t.steps {
		out[i] = s.name
	}
	return out
}

// Rollback undoes every journaled side effect in reverse order. Undo
// errors do not stop the ladder — every remaining step still runs — and
// are joined into the returned error.
func (t *Txn) Rollback() error {
	if t.committed {
		return nil
	}
	var errs []error
	for i := len(t.steps) - 1; i >= 0; i-- {
		s := t.steps[i]
		if err := s.undo(); err != nil {
			errs = append(errs, fmt.Errorf("%s: undo %s: %w", t.name, s.name, err))
		}
	}
	t.steps = nil
	return errors.Join(errs...)
}

// FaultInjection makes migration's copy machinery fail on demand — the
// hardware-layer faults (a stalled migration link, an aborted transfer)
// that the hypercall-level injectors cannot express. The zero value
// injects nothing.
type FaultInjection struct {
	// FailCopyAfterPages > 0: the page copier errors out after that
	// many pages have moved (a mid-copy abort).
	FailCopyAfterPages int
	// StallLinkAfterRounds > 0: every transfer from that pre-copy round
	// on fails (the migration link went down; stop-and-copy counts as
	// the round the stop decision was made in).
	StallLinkAfterRounds int

	copied int
}

// Clear removes any armed fault and resets the page counter.
func (fi *FaultInjection) Clear() { *fi = FaultInjection{} }

// copyFault reports the injected error for copying one more page in
// round, if any.
func (fi *FaultInjection) copyFault(round int) error {
	if fi == nil {
		return nil
	}
	if fi.StallLinkAfterRounds > 0 && round >= fi.StallLinkAfterRounds {
		return fmt.Errorf("migrate: link stalled in round %d", round)
	}
	if fi.FailCopyAfterPages > 0 && fi.copied >= fi.FailCopyAfterPages {
		return fmt.Errorf("migrate: transfer aborted after %d pages", fi.copied)
	}
	fi.copied++
	return nil
}

// verifyDestination proves the destination image matches the source
// before the source is destroyed: every non-table frame in [lo, hi)
// must be bit-identical at +delta, and every page-table frame reachable
// from the pinned roots must hold the source tree relocated by exactly
// delta (same present bits, same flags, frames shifted by delta). The
// comparison work is charged to c — it runs inside the stop-and-copy
// window, so it counts toward downtime.
func verifyDestination(c *hw.CPU, src, dst *hw.PhysMem,
	lo, hi hw.PFN, delta int64, roots []hw.PFN) error {

	// Collect the table frames: the pinned roots plus every L1 frame a
	// present PDE references, read from the (still intact) source tree.
	tables := make(map[hw.PFN]bool, len(roots)*4)
	for _, root := range roots {
		for _, pfn := range pgtable.Attach(src, root).TableFrames() {
			tables[pfn] = true
		}
	}

	perFrame := c.M.Costs.PageCopy / 4 // a compare reads both copies
	for pfn := lo; pfn < hi; pfn++ {
		tgt := hw.PFN(int64(pfn) + delta)
		c.Charge(perFrame)
		if tables[pfn] {
			if err := verifyTableFrame(src, dst, pfn, tgt, delta); err != nil {
				return err
			}
			continue
		}
		if !bytes.Equal(src.FrameBytesRO(pfn), dst.FrameBytesRO(tgt)) {
			return fmt.Errorf("migrate: verify: frame %d diverges from source frame %d", tgt, pfn)
		}
	}
	return nil
}

// verifyTableFrame checks one relocated page-table frame entry by entry.
func verifyTableFrame(src, dst *hw.PhysMem, pfn, tgt hw.PFN, delta int64) error {
	stable, dtable := hw.ViewTable(src, pfn), hw.ViewTable(dst, tgt)
	for i := 0; i < hw.PTEntries; i++ {
		se, de := stable.At(i), dtable.At(i)
		if se.Present() != de.Present() {
			return fmt.Errorf("migrate: verify: table %d entry %d present bit diverges", tgt, i)
		}
		if !se.Present() {
			continue
		}
		if want := hw.PFN(int64(se.Frame()) + delta); de.Frame() != want {
			return fmt.Errorf("migrate: verify: table %d entry %d points at frame %d, want %d",
				tgt, i, de.Frame(), want)
		}
		if se.Flags() != de.Flags() {
			return fmt.Errorf("migrate: verify: table %d entry %d flags diverge", tgt, i)
		}
	}
	return nil
}

// RepinRoots registers every relocated page-directory root with the
// destination VMM, journaling an unpin per pinned root so a later abort
// releases the type refs again. Pinning validates the relocated tree
// under the destination's frame accounting — the "tables validated and
// re-pinned" half of the commit-point check. Callers must pass roots in
// a deterministic (sorted) order: the pin order and the journaled
// Applied prefix are part of the transaction's replayable record.
func RepinRoots(c *hw.CPU, txn *Txn, dst *xen.VMM, into *xen.Domain,
	roots []hw.PFN, delta int64) error {

	// Pin the whole ladder in one multicall: the pins happen inside the
	// stop-and-copy window, so amortizing the world switch across the
	// roots comes straight off downtime.
	var mc xen.Multicall
	pinned := make([]hw.PFN, 0, len(roots))
	for _, root := range roots {
		newRoot := hw.PFN(int64(root) + delta)
		if into.HasPinned(newRoot) {
			continue // restored onto a domain that still holds the pin
		}
		mc.AddPin(newRoot)
		pinned = append(pinned, newRoot)
	}
	err := dst.HypMulticall(c, into, &mc)
	// Journal an unpin for every root the multicall actually applied —
	// on a mid-batch failure the Applied prefix took its type refs and
	// a later abort must release them.
	for _, nr := range pinned[:mc.Applied] {
		nr := nr
		txn.Journal(fmt.Sprintf("pin-root-%d", nr), func() error {
			return dst.HypUnpinTable(c, into, nr)
		})
	}
	if err != nil {
		failed := pinned[len(pinned)-1]
		if mc.Applied < len(pinned) {
			failed = pinned[mc.Applied]
		}
		return fmt.Errorf("migrate: re-pinning root %d on destination: %w", failed, err)
	}
	return nil
}
