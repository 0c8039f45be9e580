package hw

// TLB is a per-CPU translation lookaside buffer, modeled as a small
// direct-mapped cache keyed by virtual page number. The TLB is
// hardware-managed (as on x86), so a CR3 write flushes it; this is why
// modern VMMs share a single address space with the guest and why Mercury
// reserves the VMM hole permanently (§3.2.2) — crossing into the VMM never
// costs a flush.
type TLB struct {
	entries [tlbSize]tlbEntry

	// statistics
	Hits, Misses, Flushes uint64
}

type tlbEntry struct {
	valid  bool
	vpn    VPN
	pfn    PFN
	write  bool
	user   bool
	global bool
}

// tlbSize is the number of TLB entries per CPU; a power of two, so a
// VPN's slot is its low bits.
const (
	tlbSize = 64
	tlbMask = tlbSize - 1
)

// NewTLB builds an empty TLB.
func NewTLB() *TLB { return &TLB{} }

// Lookup returns the cached translation for vpn, if any.
func (t *TLB) Lookup(vpn VPN) (PFN, bool, bool, bool) {
	e := &t.entries[uint32(vpn)&tlbMask]
	if e.valid && e.vpn == vpn {
		t.Hits++
		return e.pfn, e.write, e.user, true
	}
	t.Misses++
	return 0, false, false, false
}

// Insert caches a translation.
func (t *TLB) Insert(vpn VPN, pfn PFN, write, user, global bool) {
	t.entries[uint32(vpn)&tlbMask] = tlbEntry{
		valid: true, vpn: vpn, pfn: pfn,
		write: write, user: user, global: global,
	}
}

// Invalidate drops a single translation (INVLPG).
func (t *TLB) Invalidate(vpn VPN) {
	e := &t.entries[uint32(vpn)&tlbMask]
	if e.valid && e.vpn == vpn {
		e.valid = false
	}
}

// Flush drops all non-global translations (a CR3 write).
func (t *TLB) Flush() {
	t.Flushes++
	for i := range t.entries {
		if !t.entries[i].global {
			t.entries[i].valid = false
		}
	}
}

// FlushAll drops everything, including global entries.
func (t *TLB) FlushAll() {
	t.Flushes++
	for i := range t.entries {
		t.entries[i].valid = false
	}
}
