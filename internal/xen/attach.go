package xen

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/hw"
)

// Attach by a cost rule: the recompute policy's attach restored from
// what the last detach kept, instead of walked.
//
// The walk (recomputeWalk) pins every root the kernel hands it. Per
// root it charges one FrameValidate for the directory and one
// PTValidatePin per present directory entry, plus, for each L1 no
// earlier entry reached, one FrameValidate and one PTValidatePin per
// present entry; then it marks the root pinned and emits a xen/pin
// instant. Between a detach and the next attach the native kernel
// changes few entries and rarely a directory, so the walk mostly
// rebuilds the table the detach has just thrown away.
//
// So when ReleaseFrameInfo releases by its rule on a one-CPU machine,
// it first keeps what the reset forgets (keepForAttach): the pinned
// roots, the release tally and a copy of each directory and of each L1
// they reach, with the base pointer's refs dropped. At that point
// memory holds the tables the records were built from: while attached
// a page-table frame is typed and never mapped writable, so every store
// to it is a validated mmu_update. Copies whose present entries do not
// add up to the release tally keep nothing. The records themselves stay
// where they are: the reset is FrameTable.keep, which ends their epoch
// K and hands its touched list to the keep, so while native they read
// as zero.
//
// RecomputeFrameInfo rewinds the table to K (restoreKept) when
//   - one worker walks (a sharded walk charges its largest shard);
//   - the frame table is untouched since the reset, and no SetOwner or
//     Set call has run since;
//   - the roots are the kept roots, and CR3 holds one of them;
//   - no pin failure is injected, no grant is mapped, and no domain
//     holds a pin or a base pointer;
//   - every kept directory is byte-equal to memory;
//   - no kept record has been cleared since the keep. This is checked
//     last, by FrameTable.rewind, after every other read.
//
// The rewind makes epoch K current again with its touched list, so its
// records count as they did at the detach. Nothing is stamped with the
// epoch it leaves, whose touched list is empty, and a mutation that
// clears a record stamped K spoils the keep. Each L1 entry that differs
// from its copy then moves its refs by the journal's checked
// replaySlot, and the attach charges what the walk would, root by root
// in the order given, with each xen/pin instant at the cycle the walk
// emits it. A store made to memory behind the VMM's back is caught as
// the walk catches it: a directory that differs, or an entry
// replaySlot refuses, drops the kept state and takes the walk, which
// fails where it fails. Any attach spends the kept state.
//
// FuzzAttachRule runs the rule and the walk on twin machines and
// requires equal tables, pins, tallies, errors and clocks.

// attachKeep is what a rule detach keeps for the next attach, guarded
// by the MMU lock. Its buffers are reused from switch to switch.
type attachKeep struct {
	d      *Domain  // the domain the state was kept for; nil if none
	epoch  uint32   // the frame table's epoch after the keep
	owners uint64   // FrameTable.owners at the reset
	roots  []hw.PFN // d's pinned roots, ascending
	built  bool     // tables, kids, pages and index describe roots
	rel    releaseTally
	tables []keptTable      // the roots' directories in roots order, then the L1s
	kids   []int32          // each directory's present entries, as indices into tables
	pages  []byte           // the tables' copies, hw.PageSize bytes each, in tables order
	index  map[hw.PFN]int32 // tables by frame
	sorted []hw.PFN         // the attach's roots, sorted
}

// keptTable is one kept directory or L1.
type keptTable struct {
	pfn     hw.PFN
	present int32 // present entries
	kids    int32 // a directory's first entry in attachKeep.kids
	reached bool  // the charge pass has counted this L1
}

// page returns table i's copy.
func (k *attachKeep) page(i int) *[hw.PageSize]byte {
	return (*[hw.PageSize]byte)(k.pages[i*hw.PageSize:])
}

// addTable appends pfn to the kept tables and returns its index.
func (k *attachKeep) addTable(pfn hw.PFN) int32 {
	i := int32(len(k.tables))
	k.tables = append(k.tables, keptTable{pfn: pfn})
	k.index[pfn] = i
	return i
}

// presentPair masks the present bits of the two little-endian entries
// in one 64-bit word of a table page.
const presentPair = uint64(hw.PTEPresent) | uint64(hw.PTEPresent)<<32

// presentEntries counts the present entries of a table page.
func presentEntries(page *[hw.PageSize]byte) int32 {
	n := 0
	for off := 0; off < hw.PageSize; off += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(page[off:off+8]) & presentPair)
	}
	return int32(n)
}

// keepForAttach drops d's base pointer and keeps d's roots, tally and
// tables for the next attach, reporting whether it kept them; the reset
// that follows keeps the records (MMU lock held, release rule
// applying). When the roots and their directories are the last keep's,
// so are the kept tables, and only the L1s memory has changed since are
// copied and counted again.
func (v *VMM) keepForAttach(c *hw.CPU, d *Domain) bool {
	k := &v.keep
	k.d = nil
	if len(v.M.CPUs) != 1 {
		return false
	}
	v.dropBaseptr(c, d)
	k.sorted = k.sorted[:0]
	for r := range d.pinnedRoots {
		k.sorted = append(k.sorted, r)
	}
	slices.Sort(k.sorted)
	mem := v.M.Mem
	if !k.built || !slices.Equal(k.sorted, k.roots) || !k.directoriesMatch(mem) {
		k.roots = append(k.roots[:0], k.sorted...)
		if !k.build(mem) {
			return false
		}
	}
	units := len(k.roots)
	for i := len(k.roots); i < len(k.tables); i++ {
		t, page := &k.tables[i], k.page(i)
		if cur := (*[hw.PageSize]byte)(mem.FrameBytesRO(t.pfn)); *page != *cur {
			*page = *cur
			t.present = presentEntries(page)
		}
		t.reached = false
		units += int(t.present)
	}
	if units != v.rel.units {
		return false
	}
	k.rel = v.rel
	k.d = d
	return true
}

// directoriesMatch reports whether every kept directory is byte-equal
// to memory.
func (k *attachKeep) directoriesMatch(mem *hw.PhysMem) bool {
	for i, r := range k.roots {
		if *k.page(i) != *(*[hw.PageSize]byte)(mem.FrameBytesRO(r)) {
			return false
		}
	}
	return true
}

// build rebuilds the kept tables of k.roots from memory: each
// directory, then each L1 its present entries reach, every one copied
// and counted. It reports false, keeping nothing, on a directory entry
// no walk could have typed.
func (k *attachKeep) build(mem *hw.PhysMem) bool {
	k.built = false
	if k.index == nil {
		k.index = make(map[hw.PFN]int32)
	}
	clear(k.index)
	k.tables, k.kids = k.tables[:0], k.kids[:0]
	for _, r := range k.roots {
		k.addTable(r)
	}
	for i, r := range k.roots {
		k.tables[i].kids = int32(len(k.kids))
		dir := (*[hw.PageSize]byte)(mem.FrameBytesRO(r))
		for off := 0; off < hw.PageSize; off += 8 {
			w := binary.LittleEndian.Uint64(dir[off : off+8])
			if w&presentPair == 0 {
				continue
			}
			for _, pde := range [2]hw.PTE{hw.PTE(w), hw.PTE(w >> 32)} {
				if !pde.Present() {
					continue
				}
				ti, ok := k.index[pde.Frame()]
				if !ok {
					if !mem.Valid(pde.Frame()) {
						return false
					}
					ti = k.addTable(pde.Frame())
				} else if int(ti) < len(k.roots) {
					return false // a directory used as an L1: no walk typed this
				}
				k.kids = append(k.kids, ti)
			}
		}
		k.tables[i].present = int32(len(k.kids)) - k.tables[i].kids
	}
	n := len(k.tables) * hw.PageSize
	k.pages = slices.Grow(k.pages[:0], n)[:n]
	for i := range k.tables {
		page := k.page(i)
		copy(page[:], mem.FrameBytesRO(k.tables[i].pfn))
		if i >= len(k.roots) {
			k.tables[i].present = presentEntries(page)
		}
	}
	k.built = true
	return true
}

// restoreKept attaches d over roots by the rule above and reports
// whether it did. When it did not, the table, the tally and d are as
// they were and nothing was charged (MMU lock held).
func (v *VMM) restoreKept(c *hw.CPU, d *Domain, roots []hw.PFN) bool {
	k, ft := &v.keep, v.FT
	if k.d != d || ft.epoch != k.epoch || len(ft.touched) != 0 || ft.owners != k.owners ||
		v.rel != (releaseTally{}) || v.injectPinFails.Load() != 0 ||
		len(d.pinnedRoots) != 0 || d.baseHeld {
		return false
	}
	k.sorted = append(k.sorted[:0], roots...)
	slices.Sort(k.sorted)
	if !slices.Equal(k.sorted, k.roots) {
		return false
	}
	base, ok := v.cr3Root(c, d)
	if _, kept := slices.BinarySearch(k.roots, base); !ok || !kept {
		return false
	}
	if !k.directoriesMatch(v.M.Mem) {
		return false
	}
	// Last, after every read above: the keep spoils if a kept record was
	// cleared since.
	if !ft.rewind() {
		return false
	}
	v.rel = k.rel
	for i := len(k.roots); i < len(k.tables); i++ {
		if !v.replayTable(d, &k.tables[i], k.page(i)) {
			// Every record rewound or replayed is on the touched list,
			// so a reset puts back the untouched table.
			ft.Reset()
			v.rel = releaseTally{}
			return false
		}
	}
	for _, r := range k.roots {
		d.pinnedRoots[r] = true
	}
	costs := v.M.Costs
	for _, r := range roots {
		t := &k.tables[k.index[r]]
		n := costs.FrameValidate + costs.PTValidatePin*hw.Cycles(t.present)
		for _, ki := range k.kids[t.kids : t.kids+t.present] {
			if l1 := &k.tables[ki]; !l1.reached {
				l1.reached = true
				n += costs.FrameValidate + costs.PTValidatePin*hw.Cycles(l1.present)
			}
		}
		c.Charge(n)
		v.traceInstant(c, "xen/pin", uint64(d.ID))
	}
	// The base pointer on a pinned root: one more ref, as the walk takes.
	if err := v.setBaseptr(c, d, base, sinkCharge); err != nil {
		panic(fmt.Sprintf("xen: attach rule: base pointer: %v", err))
	}
	v.Stats.RuleAttaches.Add(1)
	return true
}

// replayTable moves the refs of each entry of the kept L1 t that
// differs from memory, from its copy's value to memory's, and reports
// whether replaySlot took every one. The copy and its present count
// follow each entry replayed.
func (v *VMM) replayTable(d *Domain, t *keptTable, kept *[hw.PageSize]byte) bool {
	cur := (*[hw.PageSize]byte)(v.M.Mem.FrameBytesRO(t.pfn))
	if *kept == *cur {
		return true
	}
	for off := 0; off < hw.PageSize; off += 4 {
		from := hw.PTE(binary.LittleEndian.Uint32(kept[off : off+4]))
		to := hw.PTE(binary.LittleEndian.Uint32(cur[off : off+4]))
		if from == to {
			continue
		}
		if v.replaySlot(d, from, to) != nil {
			return false
		}
		copy(kept[off:off+4], cur[off:off+4])
		if from.Present() {
			t.present--
		}
		if to.Present() {
			t.present++
		}
	}
	return true
}
