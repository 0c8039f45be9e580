package migrate

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/xen"
)

// env builds an active VMM with a privileged caller domain and a guest
// domain whose memory holds a recognizable pattern.
func env(t testing.TB) (*xen.VMM, *xen.Domain, *xen.Domain, *hw.CPU) {
	t.Helper()
	h, err := xen.BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := h.V.CreateDomain("guest", 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	return h.V, h.Dom0, guest, h.C
}

// fill writes a deterministic pattern into n frames of d.
func fill(v *xen.VMM, d *xen.Domain, n int) []hw.PFN {
	lo, _ := d.Frames.Range()
	var pfns []hw.PFN
	for i := 0; i < n; i++ {
		pfn := lo + hw.PFN(i)
		v.M.Mem.WriteWord(pfn.Addr(), uint32(0xAB00_0000)|uint32(pfn))
		v.M.Mem.WriteWord(pfn.Addr()+128, uint32(i))
		pfns = append(pfns, pfn)
	}
	return pfns
}

func verify(t *testing.T, mem *hw.PhysMem, src, dst []hw.PFN, srcOrig []hw.PFN) {
	t.Helper()
	for i, pfn := range dst {
		if got := mem.ReadWord(pfn.Addr() + 128); got != uint32(i) {
			t.Fatalf("frame %d payload = %d, want %d", pfn, got, i)
		}
		_ = src
		_ = srcOrig
	}
}

func TestCheckpointRestoreSameMachine(t *testing.T) {
	v, caller, guest, c := env(t)
	pfns := fill(v, guest, 32)
	guest.VCPU0().SetCR3(pfns[0])

	img, err := Checkpoint(c, v, caller, guest)
	if err != nil {
		t.Fatal(err)
	}
	if guest.State != xen.DomRunning {
		t.Fatal("guest not resumed after checkpoint")
	}
	if len(img.Pages) < 32 {
		t.Fatalf("image holds %d pages", len(img.Pages))
	}

	// Corrupt, then restore.
	for _, pfn := range pfns {
		v.M.Mem.ZeroFrame(pfn)
	}
	if err := Restore(c, v, caller, guest, img); err != nil {
		t.Fatal(err)
	}
	for i, pfn := range pfns {
		if got := v.M.Mem.ReadWord(pfn.Addr() + 128); got != uint32(i) {
			t.Fatalf("frame %d payload = %d after restore", pfn, got)
		}
	}
	if guest.VCPU0().CR3() != pfns[0] {
		t.Fatal("vcpu CR3 not restored")
	}
}

// encodedCheckpoint checkpoints a guest with 8 patterned frames and
// returns the image with its encoding.
func encodedCheckpoint(t testing.TB) (*DomainImage, []byte) {
	t.Helper()
	v, caller, guest, c := env(t)
	fill(v, guest, 8)
	img, err := Checkpoint(c, v, caller, guest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img, b
}

func TestImageEncodeDecode(t *testing.T) {
	img, b := encodedCheckpoint(t)
	back, err := DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != img.Name || len(back.Pages) != len(img.Pages) {
		t.Fatal("round trip lost data")
	}
	if back.MemBytes() != img.MemBytes() {
		t.Fatal("size mismatch")
	}
}

func TestRestoreAcrossMachinesRelocates(t *testing.T) {
	v1, caller1, guest1, c1 := env(t)

	// Build a tiny page-table tree in the guest so relocation has work.
	lo, _ := guest1.Frames.Range()
	root := lo + 100
	pt := lo + 101
	data := lo + 102
	hw.WritePTE(v1.M.Mem, root, 3, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(v1.M.Mem, pt, 7, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	v1.M.Mem.WriteWord(data.Addr(), 0xFEED)
	guest1.VCPU0().SetCR3(root)

	img, err := Checkpoint(c1, v1, caller1, guest1)
	if err != nil {
		t.Fatal(err)
	}
	img.PinnedRoots = []hw.PFN{root}

	// Second machine with a different partition layout.
	v2, caller2, c2 := dstEnv(t)
	into, _ := v2.CreateDomain("incoming", 1024, false)

	if err := Restore(c2, v2, caller2, into, img); err != nil {
		t.Fatal(err)
	}
	lo2, _ := into.Frames.Range()
	delta := int64(lo2) - int64(lo)
	newRoot := hw.PFN(int64(root) + delta)
	if into.VCPU0().CR3() != newRoot {
		t.Fatalf("CR3 = %d, want %d", into.VCPU0().CR3(), newRoot)
	}
	// The relocated tree walks to the relocated data frame.
	w, ok := hw.Walk(v2.M.Mem, newRoot, hw.VirtAddr(3<<hw.PDShift|7<<hw.PageShift))
	if !ok {
		t.Fatal("relocated tree does not walk")
	}
	if got := v2.M.Mem.ReadWord(w.PTE.Frame().Addr()); got != 0xFEED {
		t.Fatalf("relocated data = %#x", got)
	}
}

func TestLiveMigrationPreservesMutatingMemory(t *testing.T) {
	v1, caller1, guest, c := env(t)
	fill(v1, guest, 64)
	lo, _ := guest.Frames.Range()

	v2, caller2, _ := dstEnv(t)

	// The guest keeps mutating during pre-copy; the final values must
	// arrive regardless.
	finalVals := make(map[hw.PFN]uint32)
	mutator := func(round int) {
		for i := 0; i < 10; i++ {
			pfn := lo + hw.PFN((round*7+i*3)%64)
			val := uint32(round*1000 + i)
			v1.M.Mem.WriteWord(pfn.Addr()+256, val)
			finalVals[pfn] = val
		}
	}

	var cfg LiveConfig
	cfg.Mutator = mutator
	into, rep, err := Live(c, v1, caller1, guest, v2, caller2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) < 2 {
		t.Fatalf("pre-copy did only %d rounds", len(rep.Rounds))
	}
	if rep.DowntimeCyc == 0 || rep.DowntimeCyc >= rep.TotalCyc {
		t.Fatalf("downtime %d vs total %d", rep.DowntimeCyc, rep.TotalCyc)
	}
	lo2, _ := into.Frames.Range()
	delta := int64(lo2) - int64(lo)
	for pfn, want := range finalVals {
		tgt := hw.PFN(int64(pfn) + delta)
		if got := v2.M.Mem.ReadWord(tgt.Addr() + 256); got != want {
			t.Fatalf("frame %d: got %d want %d", tgt, got, want)
		}
	}
	// Source domain is gone.
	if _, ok := v1.Domains[guest.ID]; ok {
		t.Fatal("source domain survived migration")
	}
	if into.State != xen.DomRunning {
		t.Fatal("target not running")
	}
}

func TestLiveMigrationIdleGuestConverges(t *testing.T) {
	v1, caller1, guest, c := env(t)
	fill(v1, guest, 128)

	v2, caller2, _ := dstEnv(t)

	_, rep, err := Live(c, v1, caller1, guest, v2, caller2, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// An idle guest converges after round 0 plus the (empty) final copy.
	if rep.Rounds[0].Pages < 128 {
		t.Fatalf("round 0 moved %d pages", rep.Rounds[0].Pages)
	}
	last := rep.Rounds[len(rep.Rounds)-1]
	if last.Pages > 16 {
		t.Fatalf("final copy moved %d pages (no convergence)", last.Pages)
	}
}

// Property: checkpoint -> restore is an identity on guest memory for
// arbitrary contents.
func TestCheckpointRestoreIdentity(t *testing.T) {
	f := func(seed uint32, words []uint32) bool {
		v, caller, guest, c := env(t)
		lo, _ := guest.Frames.Range()
		for i, w := range words {
			if i >= 256 {
				break
			}
			pfn := lo + hw.PFN(i%64)
			v.M.Mem.WriteWord(pfn.Addr()+hw.PhysAddr((i%1000)*4), w^seed)
		}
		img, err := Checkpoint(c, v, caller, guest)
		if err != nil {
			return false
		}
		before := make(map[hw.PFN][]byte)
		for pfn := range img.Pages {
			cp := make([]byte, hw.PageSize)
			copy(cp, v.M.Mem.FrameBytes(pfn))
			before[pfn] = cp
		}
		// Scramble and restore.
		for pfn := range img.Pages {
			v.M.Mem.ZeroFrame(pfn)
		}
		if err := Restore(c, v, caller, guest, img); err != nil {
			return false
		}
		for pfn, want := range before {
			got := v.M.Mem.FrameBytes(pfn)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBytesDeterministic is the snapshot-identity bug's
// regression test: two checkpoints of the same paused domain must
// serialize to byte-identical encodings. The old gob-map encoding
// leaked map iteration order into the bytes, so identical state hashed
// differently run to run.
func TestCheckpointBytesDeterministic(t *testing.T) {
	v, caller, guest, c := env(t)
	fill(v, guest, 48)
	lo, _ := guest.Frames.Range()
	// Several pinned roots so root ordering is exercised too.
	guest.VCPU0().SetCR3(lo + 40)

	img1, err := Checkpoint(c, v, caller, guest)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := Checkpoint(c, v, caller, guest)
	if err != nil {
		t.Fatal(err)
	}
	img1.PinnedRoots = []hw.PFN{lo + 40, lo + 12, lo + 30}
	img2.PinnedRoots = []hw.PFN{lo + 30, lo + 40, lo + 12}
	b1, err := img1.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := img2.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two checkpoints of identical state encode differently")
	}
	// Round trip preserves the payload and sorts the roots.
	back, err := DecodeImage(b1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(back.PinnedRoots); i++ {
		if back.PinnedRoots[i-1] >= back.PinnedRoots[i] {
			t.Fatal("decoded roots not sorted ascending")
		}
	}
	if len(back.Pages) != len(img1.Pages) {
		t.Fatal("round trip lost pages")
	}
}

// TestRestoreIntoLargerPartition covers the scrub-beyond-image path: a
// restore into a strictly larger partition must zero the frames past
// the image span, relocate the tables, and shift CR3 by the partition
// delta.
func TestRestoreIntoLargerPartition(t *testing.T) {
	v1, caller1, guest1, c1 := env(t)
	lo, _ := guest1.Frames.Range()
	root, pt, data := lo+100, lo+101, lo+5
	hw.WritePTE(v1.M.Mem, root, 3, hw.MakePTE(pt, hw.PTEPresent|hw.PTEWrite))
	hw.WritePTE(v1.M.Mem, pt, 7, hw.MakePTE(data, hw.PTEPresent|hw.PTEWrite|hw.PTEUser))
	v1.M.Mem.WriteWord(data.Addr(), 0xFEED)
	guest1.VCPU0().SetCR3(root)

	img, err := Checkpoint(c1, v1, caller1, guest1)
	if err != nil {
		t.Fatal(err)
	}
	img.PinnedRoots = []hw.PFN{root}

	v2, caller2, c2 := dstEnv(t)
	into, _ := v2.CreateDomain("incoming", 2048, false) // twice the source span

	// Pre-dirty the whole target partition so the scrub has work.
	lo2, hi2 := into.Frames.Range()
	for pfn := lo2; pfn < hi2; pfn++ {
		v2.M.Mem.WriteWord(pfn.Addr(), 0xBAD0_0000|uint32(pfn))
	}
	if err := Restore(c2, v2, caller2, into, img); err != nil {
		t.Fatal(err)
	}
	delta := int64(lo2) - int64(lo)
	if got, want := into.VCPU0().CR3(), hw.PFN(int64(root)+delta); got != want {
		t.Fatalf("CR3 = %d, want %d", got, want)
	}
	w, ok := hw.Walk(v2.M.Mem, into.VCPU0().CR3(), hw.VirtAddr(3<<hw.PDShift|7<<hw.PageShift))
	if !ok {
		t.Fatal("relocated tree does not walk")
	}
	if got := v2.M.Mem.ReadWord(w.PTE.Frame().Addr()); got != 0xFEED {
		t.Fatalf("relocated data = %#x", got)
	}
	// Every frame past the image span was scrubbed, not left dirty.
	span := img.Hi - img.Lo
	zero := make([]byte, hw.PageSize)
	for pfn := lo2 + span; pfn < hi2; pfn++ {
		if !bytes.Equal(v2.M.Mem.FrameBytesRO(pfn), zero) {
			t.Fatalf("frame %d beyond image span not scrubbed", pfn)
		}
	}
}

// TestFilterRangeAndDedupPreserveInput is the aliasing regression test:
// both helpers must return fresh slices. The old pfns[:0] idiom
// clobbered the caller's backing array as it filtered, corrupting any
// other slice sharing it (the collected dirty set is reused across
// pre-copy rounds).
func TestFilterRangeAndDedupPreserveInput(t *testing.T) {
	in := []hw.PFN{9, 1, 50, 2, 9, 200, 3}
	orig := append([]hw.PFN(nil), in...)

	got := filterRange(in, 0, 100)
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("filterRange mutated its input: %v", in)
	}
	if want := []hw.PFN{9, 1, 50, 2, 9, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("filterRange = %v, want %v", got, want)
	}
	if len(got) > 0 && &got[0] == &in[0] {
		t.Fatal("filterRange aliases its input's backing array")
	}

	got = dedup(in)
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("dedup mutated its input: %v", in)
	}
	if want := []hw.PFN{9, 1, 50, 2, 200, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup = %v, want %v", got, want)
	}
	if &got[0] == &in[0] {
		t.Fatal("dedup aliases its input's backing array")
	}
}

// TestCheckpointResumeFailureReturnsUsableImage: when the snapshot is
// complete but the resume hypercall fails, Checkpoint must hand the
// image back alongside the error — it is exactly the state a failing
// system needs — and that image must actually restore.
func TestCheckpointResumeFailureReturnsUsableImage(t *testing.T) {
	v, caller, guest, c := env(t)
	pfns := fill(v, guest, 24)

	v.InjectUnpauseFailures(1)
	img, err := Checkpoint(c, v, caller, guest)
	if err == nil {
		t.Fatal("injected unpause failure did not surface")
	}
	if img == nil {
		t.Fatal("resume failure discarded the completed snapshot")
	}
	if guest.State != xen.DomPaused {
		t.Fatalf("guest state = %v, want paused after failed resume", guest.State)
	}

	// The image is complete: restoring it elsewhere yields the payload.
	into, err := v.CreateDomain("recovered", img.Hi-img.Lo, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(c, v, caller, into, img); err != nil {
		t.Fatal(err)
	}
	lo, _ := guest.Frames.Range()
	lo2, _ := into.Frames.Range()
	for i, pfn := range pfns {
		want := v.M.Mem.ReadWord(pfn.Addr())
		if got := v.M.Mem.ReadWord((lo2 + (pfn - lo)).Addr()); got != want {
			t.Fatalf("restored word %d = %#x, want %#x", i, got, want)
		}
	}
	// The original guest is recoverable too: the pause still holds its
	// refcount, so a plain unpause resumes it.
	if err := v.HypDomctlUnpause(c, caller, guest.ID); err != nil {
		t.Fatal(err)
	}
	if guest.State != xen.DomRunning {
		t.Fatalf("guest state = %v after recovery unpause", guest.State)
	}
}
