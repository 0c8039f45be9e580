package hw

// CostModel holds the cycle cost of every primitive operation the
// simulation charges for. The defaults are calibrated so that the guest
// kernel's native-mode lmbench numbers land near the paper's native Linux
// column on a 3 GHz clock; all virtualized-mode numbers then emerge from
// the extra traps, validations and ring hops those modes execute.
//
// Grouping follows the paper's classification of virtualization-sensitive
// operations (§5.3): sensitive CPU operations, sensitive memory
// operations, and sensitive I/O operations, plus the generic machine
// costs they compose with.
type CostModel struct {
	// --- generic machine costs ---

	MemRead  Cycles // one cached memory word read
	MemWrite Cycles // one cached memory word write
	PageCopy Cycles // copying one 4 KB page (memcpy)
	PageZero Cycles // zeroing one 4 KB page

	// --- address translation ---

	TLBHit        Cycles // translation served from the TLB
	TLBMissWalk   Cycles // two-level hardware page-table walk
	TLBFlush      Cycles // flushing the whole TLB (e.g., CR3 write)
	TLBRefillPage Cycles // re-touching one page of working set after a flush
	// (TLB refill plus the cache lines that went cold)

	// --- traps, interrupts, privilege transitions ---

	SyscallEntry Cycles // user->kernel syscall trap, same privilege domain
	SyscallExit  Cycles
	FaultEntry   Cycles // hardware exception delivery (e.g., #PF)
	FaultExit    Cycles
	IRQDeliver   Cycles // external interrupt delivery through the IDT
	IRQEOI       Cycles
	IPISend      Cycles // LAPIC ICR write
	IPIDeliver   Cycles // IPI receipt on the target

	// --- sensitive CPU operations ---

	PrivInsn Cycles // privileged instruction executed at PL0 (cli/sti,
	// mov crN, lidt/lgdt, ...)
	DescTableLoad Cycles // loading GDTR/IDTR/LDTR
	SegReload     Cycles // reloading segment registers after a table change

	// --- sensitive memory operations ---

	PTEWriteNative Cycles // direct PTE store in native mode

	// --- VMM-mediated costs (paid only in virtualized modes) ---

	WorldSwitch    Cycles // guest<->VMM transition (trap in + return)
	HypercallBase  Cycles // fixed cost of one hypercall (on top of WorldSwitch)
	MMUUpdateEntry Cycles // validating one PTE update inside the VMM
	MulticallPerOp Cycles // dispatching one op inside a multicall batch
	// (argument fetch + table decode; replaces the per-op
	// WorldSwitch+HypercallBase that an unbatched stream pays)
	MulticallEnqueue Cycles // guest-side append of one op into a lazy
	// multicall buffer (the xen_mc_batch pattern)
	PTValidatePin   Cycles // validating one present entry while pinning a PT page
	FaultBounce     Cycles // VMM receiving a guest fault and bouncing it back
	VCPUStateSwitch Cycles // saving/restoring vcpu state (segments, LDT,
	// FPU flags) across a paravirtual context switch
	EventSend       Cycles // raising an event channel notification
	EventDeliver    Cycles // delivering a pending event upcall into a guest
	GrantMap        Cycles // mapping one granted frame
	RingPut         Cycles // enqueuing one request on a shared I/O ring
	RingGet         Cycles // dequeuing one request/response
	DomSwitch       Cycles // VMM scheduler switching between domains
	DomSchedLatency Cycles // latency until the VMM scheduler runs the
	// target domain of an event upcall

	// --- Mercury VO costs ---

	VOIndirect   Cycles // one indirect call through a virtualization object
	VORefCount   Cycles // entry+exit reference counting (two atomic ops)
	MirrorUpdate Cycles // keeping VMM frame info in sync with one native
	// PTE store (active-tracking policy, §5.1.2)

	// --- mode switch costs (Mercury core) ---

	FrameValidate Cycles // recomputing type/count info for one frame
	// during a native->virtual switch
	FrameRelease Cycles // dropping the accounting for one present entry
	// while devalidating a table at detach time
	FrameMerge Cycles // folding one frame's accounting back together
	// from the shards of a sharded attach recompute, per distinct frame
	// the walk touched
	JournalAppend Cycles // appending one entry to the dirty-frame
	// journal on the native PTE-write path
	JournalReplayEntry Cycles // verifying and replaying one condensed
	// journal slot at re-attach time
	CoWMapPerFrame Cycles // mapping one shared snapshot-cache frame
	// read-only into a forked domain (accounting update + read-only
	// PTE install; a promotion later pays PageCopy)
	SelectorFixup Cycles // patching cached segment selectors on one
	// interrupted thread stack
	StateReload Cycles // reloading CR3/IDT/GDT and patching the return
	// frame privilege level

	// --- guest-kernel work (mode-independent kernel computation; these
	// calibrate the native column, the virtualized columns then follow
	// from the mediated operations above) ---

	ForkBase        Cycles // task/mm struct setup for fork
	ForkPerPage     Cycles // per-page vma walk + pte copy accounting
	ExecBase        Cycles // binary load, mm teardown/rebuild bookkeeping
	FaultWork       Cycles // vma lookup + handler work per page fault
	MapPerPage      Cycles // mmap per-page vma/page-cache work
	UnmapPerPage    Cycles // munmap per-page teardown work
	CtxWork         Cycles // scheduler bookkeeping per context switch
	SignalDeliver   Cycles // delivering a signal to a user handler
	PageCacheLookup Cycles // radix-tree lookup of a cached file page
	BlkDriverStack  Cycles // block-layer + driver work per request
	NetStackTx      Cycles // protocol stack work per outbound packet
	NetStackRx      Cycles // protocol stack work per inbound packet
	PhysIRQVirt     Cycles // extra cost of one physical device interrupt
	// taken through the VMM (entry, upcall into the
	// driver domain, PHYSDEVOP_eoi hypercall)

	// --- devices ---

	DiskRequest Cycles // issuing one request to the (cached) disk
	DiskPerKB   Cycles // per-KB transfer cost
	NICPerPkt   Cycles // per-packet NIC processing
	NICPerKB    Cycles // per-KB NIC copy cost

	// --- SMP ---

	LockAcquire   Cycles // uncontended spinlock acquire+release pair
	LockContended Cycles // extra cost when the lock is contended
}

// DefaultCosts returns the calibrated cost model for the 3 GHz testbed.
func DefaultCosts() *CostModel {
	return &CostModel{
		MemRead:  4,
		MemWrite: 4,
		PageCopy: 900,
		PageZero: 600,

		TLBHit:        1,
		TLBMissWalk:   90,
		TLBFlush:      400,
		TLBRefillPage: 520,

		SyscallEntry: 180,
		SyscallExit:  140,
		FaultEntry:   500,
		FaultExit:    300,
		IRQDeliver:   600,
		IRQEOI:       150,
		IPISend:      300,
		IPIDeliver:   700,

		PrivInsn:      30,
		DescTableLoad: 220,
		SegReload:     60,

		PTEWriteNative: 12,

		WorldSwitch:      850,
		HypercallBase:    400,
		MMUUpdateEntry:   260,
		MulticallPerOp:   40,
		MulticallEnqueue: 8,
		PTValidatePin:    130,
		FaultBounce:      1400,
		VCPUStateSwitch:  7000,
		EventSend:        350,
		EventDeliver:     800,
		GrantMap:         450,
		RingPut:          120,
		RingGet:          120,
		DomSwitch:        1100,
		DomSchedLatency:  52_000, // ~17 us to schedule the target domain

		VOIndirect:   14,
		VORefCount:   24,
		MirrorUpdate: 52,

		FrameValidate:      95,
		FrameRelease:       42,
		FrameMerge:         6,
		JournalAppend:      9,
		JournalReplayEntry: 48,
		CoWMapPerFrame:     46,
		SelectorFixup:      160,
		StateReload:        2600,

		ForkBase:        16_000,
		ForkPerPage:     300,
		ExecBase:        60_000,
		FaultWork:       900,
		MapPerPage:      1400,
		UnmapPerPage:    900,
		CtxWork:         3200,
		SignalDeliver:   420,
		PageCacheLookup: 1000,
		BlkDriverStack:  1800,
		NetStackTx:      14_000,
		NetStackRx:      6_000,
		PhysIRQVirt:     12_000,

		DiskRequest: 5200,
		DiskPerKB:   700,
		NICPerPkt:   11_000,
		NICPerKB:    6_500,

		LockAcquire:   40,
		LockContended: 260,
	}
}

// SMPScaled returns a copy of the model with the guest-kernel work
// costs inflated, reflecting an SMP kernel build: lock-prefixed
// read-modify-write instructions in every hot path and cache-line
// bouncing make "most of the operations in SMP mode a bit expensive
// compared to those in UP mode" (§7.2, Table 2 vs Table 1). The
// VMM-mediated costs are untouched — hypercalls do not get cheaper or
// dearer with core count, which is why the virtualized columns inflate
// by a smaller factor, as in the paper.
func (cm *CostModel) SMPScaled() *CostModel {
	cp := *cm
	k := func(v Cycles) Cycles { return v * 135 / 100 }
	cp.ForkBase = k(cp.ForkBase)
	cp.ForkPerPage = k(cp.ForkPerPage)
	cp.ExecBase = k(cp.ExecBase)
	cp.FaultWork = k(cp.FaultWork)
	cp.MapPerPage = k(cp.MapPerPage)
	cp.UnmapPerPage = k(cp.UnmapPerPage)
	cp.CtxWork = k(cp.CtxWork)
	cp.PageCacheLookup = k(cp.PageCacheLookup)
	cp.SignalDeliver = k(cp.SignalDeliver)
	cp.SyscallEntry = cp.SyscallEntry * 12 / 10
	cp.SyscallExit = cp.SyscallExit * 12 / 10
	return &cp
}
