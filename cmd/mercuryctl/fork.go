package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/fork"
	"repro/internal/hw"
)

// forkCmd demonstrates the snapshot cache: warm one template domain,
// checkpoint it into a content-addressed base image, fork a fleet of
// CoW clones from it, dirty each clone a little, and delta-checkpoint
// them all — then report what the cache actually stored.
func forkCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fork", flag.ContinueOnError)
	clones := fs.Int("clones", 64, "domains to fork from one image")
	pages := fs.Int("pages", 128, "live data pages in the template")
	dirty := fs.Int("dirty", 4, "frames each clone dirties")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *clones < 1 || *pages < 1 || *dirty < 0 || *dirty > *pages {
		return fmt.Errorf("fork: need clones >= 1, pages >= 1, 0 <= dirty <= pages")
	}
	h, cb, err := fork.NewTemplate(*pages, *clones)
	if err != nil {
		return err
	}
	m, v, c, dom0, store, base := h.M, h.V, h.C, h.Dom0, cb.Store, cb.Img
	fmt.Fprintf(w, "template %q: %d pages live, image %d frames, identity %s\n",
		base.Name, *pages, store.Frames(), base.IdentityHash())

	css := make([]*fork.CloneState, 0, *clones)
	overlays := make([]*fork.Overlay, 0, *clones)
	t0 := c.Now()
	for i := 0; i < *clones; i++ {
		cs, err := fork.Clone(c, v, dom0, cb, fmt.Sprintf("clone-%d", i))
		if err != nil {
			return err
		}
		css = append(css, cs)
	}
	cloneCyc := uint64(c.Now()-t0) / uint64(*clones)
	fmt.Fprintf(w, "forked %d clones: %d cycles each (full copy would be %d), %d CoW mappings live\n",
		*clones, cloneCyc, uint64(base.Span())*900, m.Mem.SharedFrames())

	for i, cs := range css {
		// The same dirt on every clone: the cache stores it once.
		for j := 0; j < *dirty; j++ {
			m.Mem.WriteWord((cs.Lo + hw.PFN(j)).Addr(), uint32(0xD0000000)|uint32(j))
		}
		o2, err := fork.CheckpointDelta(c, v, dom0, cs)
		if err != nil {
			return fmt.Errorf("clone %d delta: %w", i, err)
		}
		overlays = append(overlays, o2)
	}
	deltaTotal := 0
	for _, o2 := range overlays {
		deltaTotal += o2.DeltaFrames()
	}
	fmt.Fprintf(w, "delta-checkpointed all clones: %d frames of dirt total, store now %d frames / %d bytes (dedup %.1fx)\n",
		deltaTotal, store.Frames(), store.BytesStored(), store.DedupRatio())
	logical := base.Span() * hw.PFN(*clones+1)
	fmt.Fprintf(w, "logical fleet footprint %d frames; cache holds %.1f%% of that\n",
		logical, float64(store.Frames())/float64(logical)*100)

	holders := []fork.RefHolder{base}
	for _, cs := range css {
		holders = append(holders, cs)
	}
	for _, o2 := range overlays {
		holders = append(holders, o2)
	}
	if err := fork.AuditRefs(store, holders...); err != nil {
		return fmt.Errorf("refcount audit: %w", err)
	}
	if err := store.Verify(); err != nil {
		return fmt.Errorf("content verification: %w", err)
	}
	fmt.Fprintf(w, "refcount audit and content verification clean\n")

	for _, cs := range css {
		if err := fork.DestroyClone(c, v, dom0, cs); err != nil {
			return err
		}
	}
	for _, o2 := range overlays {
		if err := o2.Release(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "destroyed the fleet: store back to %d frames, %d refs (base image retained)\n",
		store.Frames(), store.Refs())
	return nil
}
