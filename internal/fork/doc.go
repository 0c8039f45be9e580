// Package fork implements content-addressed domain forking over a
// shared snapshot cache.
//
// A checkpoint image (migrate.DomainImage) is ingested into a Store —
// frame content keyed by sha256, refcounted, deduplicated across every
// image — producing a BaseImage: metadata plus one FrameRef per
// non-zero frame. Clone spawns a domain from a base by mapping every
// base frame copy-on-write onto the store's pages, so a fork costs one
// mapping charge per frame instead of one page copy: the first write to
// a frame promotes it to a private copy. A clone takes one hold on its
// base and maps the base's one pages-by-offset slice in one
// hw.MapSharedRange batch, which costs one mapping header per clone and
// one pointer store per frame; teardown scrubs the partition
// (hw.PhysMem.Scrub), whose pages the next clones' promotions and first
// writes reuse, and lets go of the hold. CheckpointDelta
// captures only the frames that diverged from the base, yielding an
// Overlay whose storage is proportional to the dirt, not the image.
//
// SHA-256 runs only to key content the store lacks. CheckpointDelta
// decides "unchanged" by comparing bytes with the base's page at the
// same offset (or the zero page), and Store.Put finds existing content through
// a maphash fingerprint index whose every match a byte compare
// confirms. The fingerprint is an index only; every key and identity
// stays a sha256 digest.
//
// Identity is positional-content based: IdentityHash folds the
// partition span, vcpu offsets, pinned-root offsets, and every
// (offset, content-hash) pair into one digest, independent of the
// partition's absolute placement and the domain's name. An unmodified
// clone restored at zero displacement has exactly its base's identity;
// at non-zero displacement the relocated page-table frames are real
// divergence and appear in the delta.
//
// Reference discipline: a BaseImage owns one reference per Refs entry,
// an Overlay one per Dirty entry, and a clone none. Each clone and each
// overlay holds its base once, from when it is made until its
// teardown, abort or Release; BaseImage.Release refuses new clones at
// once, and the base drops its references when its last holder lets
// go, so every page a clone maps or an overlay flattens from stays
// stored. Every path — clone abort/rollback, destroy, overlay release,
// base release — must keep Store.Refs equal to the sum over live
// owners and each base's holds equal to its live clones and overlays;
// AuditRefs checks both and the chaos campaign's refcount-leak
// detector enforces them under fault injection.
package fork
