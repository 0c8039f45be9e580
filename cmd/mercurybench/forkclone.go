package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fork"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// fork-clone: the PhysMem layer used write-heavy. Each round boots a
// fresh machine and a template domain, then clones it repeatedly: each
// clone dirties some pages (their content repeats with the clone index
// mod 7, so the content store dedups the dirt), takes a CheckpointDelta
// and is destroyed. It exercises the CoW map, promote-on-write, the
// global CoW lookup and the sha256 content store. Rounds exist because
// destroying a domain never returns its partition to the machine.
var forkClone = &workload{
	name: "fork-clone",
	shape: fmt.Sprintf("%d rounds x %d clones of a ~%d-page template, closed loop",
		forkRounds, forkClones, forkPages),
	run: runForkClone,
}

func init() { forkClone.units = single(forkClone, func() int { return forkRounds * forkClones }) }

var (
	forkRounds = 8
	forkClones = 256
	forkPages  = 256 // mean template pages
)

// forkTotals accumulates what the rounds measured.
type forkTotals struct {
	op, clone, delta   []float64 // simulated cycles per clone
	promoted           int
	storeFrames, dedup []float64
	counters           counters
}

func runForkClone(u unit, seed int64, m *meter) {
	// The seed sizes each round's template (forkPages ± 16 pages) and
	// each clone's dirt (3/32 of forkPages, plus up to 1/16 more), and
	// salts the template's content.
	rng := rand.New(rand.NewSource(seed))
	var t forkTotals
	for round := range forkRounds {
		pages := forkPages - 16 + rng.Intn(33)
		dirty := make([]int, forkClones)
		for i := range dirty {
			dirty[i] = forkPages*3/32 + rng.Intn(forkPages/16+1)
		}
		forkRound(m, &t, round, pages, dirty, uint32(rng.Int63()))
	}

	m.sim("sim_samples", float64(len(t.op)))
	m.sim("sim_op_p50_us", us(hw.Cycles(rank(t.op, 0.50))))
	m.sim("sim_op_p99_us", us(hw.Cycles(rank(t.op, 0.99))))
	tr := m.tr
	if tr == nil {
		return
	}
	n := float64(len(t.op))
	counters{}.record(m, t.counters, n)
	m.layer("fork.clone.sim_us_p50", us(hw.Cycles(median(t.clone))))
	m.layer("fork.delta.sim_us_p50", us(hw.Cycles(median(t.delta))))
	for _, name := range []string{"clone", "delta", "destroy"} {
		m.layer("fork."+name+".host_us_p50", median(tr.hostDurs(-1, name)))
	}
	m.layer("fork.promoted_per_clone", float64(t.promoted)/n)
	m.layer("fork.store_frames", median(t.storeFrames))
	m.layer("fork.dedup_ratio", median(t.dedup))
	m.layer("migrate.checkpoint.host_ms", median(tr.hostDurs(-1, "checkpoint"))/1e3)
	m.layer("fork.new_base.host_ms", median(tr.hostDurs(-1, "new-base"))/1e3)
	m.layer("xen.hypercall_sim_cyc_p50", median(tr.simSpans("xen/hypercall")))
}

// forkRound boots one machine and template, clones it forkClones times,
// then audits and drains the content store.
func forkRound(m *meter, t *forkTotals, round, pages int, dirty []int, salt uint32) {
	tr := m.tr
	done := m.setup()
	span := hw.PFN(pages) + 16 // data pages plus table and slack frames
	// VMM reservation + dom0 + the template and every clone.
	frames := uint64(4096) + 1024 + uint64(span)*uint64(len(dirty)+1) + 512
	sp := tr.begin("hw", "new-machine", -1, 0)
	mach := hw.NewMachine(hw.Config{Name: "fork-clone", MemBytes: frames * hw.PageSize, NumCPUs: 1})
	tr.end(sp, 0)
	if col := tr.collector(fmt.Sprintf("round %d", round)); col != nil {
		mach.SetTelemetry(col)
	}
	c := mach.BootCPU()
	sp = tr.begin("xen", "boot", -1, c.Now())
	v, err := xen.Boot(mach)
	if err != nil {
		panic(fmt.Sprintf("mercurybench: booting the VMM: %v", err))
	}
	v.Activate(c)
	dom0, err := v.CreateDomain("dom0", 1024, true)
	if err != nil {
		panic(fmt.Sprintf("mercurybench: creating dom0: %v", err))
	}
	v.SetCurrent(c, dom0)
	origin, err := v.CreateDomain("template", span, false)
	if err != nil {
		panic(fmt.Sprintf("mercurybench: creating the template: %v", err))
	}
	tr.end(sp, c.Now())

	sp = tr.begin("hw", "template", -1, c.Now())
	lo, _ := origin.Frames.Range()
	for i := range pages {
		mach.Mem.WriteWord((lo + hw.PFN(i)).Addr(), (0xBE000000|uint32(i))^salt)
	}
	// A small pinned page-table tree: every clone pays its relocation.
	root, ptf := lo+hw.PFN(pages), lo+hw.PFN(pages)+1
	hw.WritePTE(mach.Mem, root, 3, hw.MakePTE(ptf, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(mach.Mem, ptf, 7, hw.MakePTE(lo, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	origin.VCPU0().SetCR3(root)
	tr.end(sp, c.Now())

	sp = tr.begin("migrate", "checkpoint", -1, c.Now())
	img, err := migrate.Checkpoint(c, v, dom0, origin)
	tr.end(sp, c.Now())
	if err != nil {
		panic(fmt.Sprintf("mercurybench: checkpointing the template: %v", err))
	}
	img.PinnedRoots = []hw.PFN{root}
	sp = tr.begin("fork", "new-base", -1, c.Now())
	store := fork.NewStore()
	base, err := fork.NewBase(store, img)
	tr.end(sp, c.Now())
	if err != nil {
		panic(fmt.Sprintf("mercurybench: ingesting the template: %v", err))
	}
	cb := &fork.CloneBase{Store: store, Img: base}
	done()

	before := snapshot(c, dom0)
	overlays := make([]*fork.Overlay, 0, len(dirty))
	m.start()
	for i, d := range dirty {
		op := round*len(dirty) + i
		t0 := c.Now()
		sp := tr.begin("fork", "clone", op, t0)
		cs, err := fork.Clone(c, v, dom0, cb, "clone")
		t1 := c.Now()
		tr.end(sp, t1)
		if err != nil {
			m.check(fmt.Errorf("round %d clone %d: %w", round, i, err))
			break
		}
		if tr != nil && round == 0 && i == 0 {
			m.stop()
			probeCoW(m, mach.Mem, cs, dom0)
			m.start()
		}
		sp = tr.begin("hw", "dirty", op, t1)
		for j := range d {
			mach.Mem.WriteWord((cs.Lo + hw.PFN(j)).Addr(), 0xD0000000|uint32(j)|uint32(i%7)<<16)
		}
		tr.end(sp, c.Now())
		t2 := c.Now()
		sp = tr.begin("fork", "delta", op, t2)
		o, err := fork.CheckpointDelta(c, v, dom0, cs)
		t3 := c.Now()
		tr.end(sp, t3)
		if err != nil {
			m.check(fmt.Errorf("round %d delta %d: %w", round, i, err))
			break
		}
		overlays = append(overlays, o)
		t.promoted += cs.PromotedCount()
		sp = tr.begin("fork", "destroy", op, t3)
		if err := fork.DestroyClone(c, v, dom0, cs); err != nil {
			m.check(fmt.Errorf("round %d destroy %d: %w", round, i, err))
		}
		tr.end(sp, c.Now())
		t.clone = append(t.clone, float64(t1-t0))
		t.delta = append(t.delta, float64(t3-t2))
		t.op = append(t.op, float64(t1-t0+t3-t2))
	}
	m.stop()
	after := snapshot(c, dom0)
	for i := range t.counters {
		t.counters[i] += after[i] - before[i]
	}
	t.storeFrames = append(t.storeFrames, float64(store.Frames()))
	t.dedup = append(t.dedup, store.DedupRatio())

	// The store's references must match its live owners, its frames
	// must still hash to their keys, and teardown must drain it.
	sp = tr.begin("fork", "audit", -1, c.Now())
	holders := []fork.RefHolder{base}
	for _, o := range overlays {
		holders = append(holders, o)
	}
	if err := fork.AuditRefs(store, holders...); err != nil {
		m.check(fmt.Errorf("round %d: %w", round, err))
	}
	if err := store.Verify(); err != nil {
		m.check(fmt.Errorf("round %d: %w", round, err))
	}
	for _, o := range overlays {
		m.check(o.Release())
	}
	m.check(base.Release())
	if f, r := store.Frames(), store.Refs(); f != 0 || r != 0 {
		m.check(fmt.Errorf("round %d: store holds %d frames and %d refs after teardown", round, f, r))
	}
	tr.end(sp, c.Now())
}

// probeCoW times PhysMem.ReadWord over every word of a live clone's
// partition (copy-on-write mapped onto the store) and WriteWord over as
// many of dom0's private frames while CoW mappings exist. The writes
// put back what the frames held, so nothing the simulation reads
// changes.
func probeCoW(m *meter, mem *hw.PhysMem, cs *fork.CloneState, dom0 *xen.Domain) {
	tr := m.tr
	var cow []hw.PFN
	for pfn := cs.Lo; pfn < cs.Lo+cs.Base.Img.Span(); pfn++ {
		cow = append(cow, pfn)
	}
	sp := tr.begin("hw", "physmem-read-cow", -1, 0)
	m.layer("hw.physmem_read_cow_ns", readFrames(mem, cow))
	tr.end(sp, 0)

	lo, hi := dom0.Frames.Range()
	hi = min(hi, lo+hw.PFN(len(cow)))
	words := make([]uint32, 0, int(hi-lo)*hw.PageSize/4)
	for pfn := lo; pfn < hi; pfn++ {
		for off := hw.PhysAddr(0); off < hw.PageSize; off += 4 {
			words = append(words, mem.ReadWord(pfn.Addr()+off))
		}
	}
	sp = tr.begin("hw", "physmem-write", -1, 0)
	m.layer("hw.physmem_write_ns", hostLoop(func() {
		for i, w := range words {
			mem.WriteWord(lo.Addr()+hw.PhysAddr(i*4), w)
		}
	}, len(words)))
	tr.end(sp, 0)
}
