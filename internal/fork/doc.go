// Package fork implements content-addressed domain forking over a
// shared snapshot cache.
//
// A checkpoint image (migrate.DomainImage) is ingested into a Store —
// frame content keyed by sha256, refcounted, deduplicated across every
// image — producing a BaseImage: metadata plus one FrameRef per
// non-zero frame. Clone spawns a domain from a base by mapping every
// base frame copy-on-write onto the store's pages, so a fork costs one
// mapping charge per frame instead of one page copy: the first write to
// a frame promotes it to a private copy and drops the clone's store
// reference. NewBase resolves each frame to its store entry once, so
// a clone takes all its references in one store pass over those
// entries (one lock, one refcount change per frame, no lookup) and maps
// the base's one pages-by-offset slice in one hw.MapSharedRange batch,
// which costs one mapping header per clone and one pointer store per
// frame; teardown releases the references left in one pass and scrubs
// the partition (hw.PhysMem.Scrub), whose pages the next clones'
// promotions and first writes reuse. CheckpointDelta
// captures only the frames that diverged from the base, yielding an
// Overlay whose storage is proportional to the dirt, not the image.
//
// SHA-256 runs only to key content the store lacks. CheckpointDelta
// decides "unchanged" by comparing bytes with the base frame's stored
// copy (or the zero page), and Store.Put finds existing content through
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
// a clone one per live CoW mapping, an Overlay one per Dirty entry.
// Every path — promotion, clone abort/rollback, destroy, overlay
// release — must keep Store.Refs equal to the sum over live owners;
// AuditRefs checks the invariant and the chaos campaign's
// refcount-leak detector enforces it under fault injection.
package fork
