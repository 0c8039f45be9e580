package hw

import "fmt"

// Privilege levels. Native kernels and the VMM run at PL0; a deprivileged
// (virtualized) kernel runs at PL1; user code runs at PL3 (§3.2.1).
const (
	PL0 = 0 // most privileged: VMM, or the kernel in native mode
	PL1 = 1 // deprivileged guest kernel in virtual mode
	PL3 = 3 // user mode
)

// Selector is an x86-style segment selector: index<<3 | table<<2 | RPL.
// The low two bits carry the requested privilege level; these are the bits
// Mercury's stack-fixup stub patches on cached selectors when a mode
// switch happens under an interrupted thread (§5.1.2).
type Selector uint16

// MakeSelector builds a selector for a GDT index at the given RPL.
func MakeSelector(index int, rpl uint8) Selector {
	return Selector(index<<3 | int(rpl&3))
}

// Index returns the descriptor-table index of the selector.
func (s Selector) Index() int { return int(s >> 3) }

// RPL returns the requested privilege level encoded in the selector.
func (s Selector) RPL() uint8 { return uint8(s & 3) }

// WithRPL returns the selector with its privilege bits replaced.
func (s Selector) WithRPL(rpl uint8) Selector {
	return (s &^ 3) | Selector(rpl&3)
}

func (s Selector) String() string {
	return fmt.Sprintf("sel(%d|rpl%d)", s.Index(), s.RPL())
}

// SegKind distinguishes descriptor types.
type SegKind uint8

const (
	SegNull SegKind = iota
	SegCode
	SegData
	SegTSS
)

// SegDesc is one descriptor-table entry.
type SegDesc struct {
	Kind    SegKind
	Base    VirtAddr
	Limit   uint32
	DPL     uint8 // descriptor privilege level
	Present bool
}

// GDT is a global (or local) descriptor table. In this simulation the
// table is a host-side structure referenced by the CPU's GDTR; loading it
// is charged the architectural cost but the contents live outside
// simulated RAM for simplicity.
type GDT struct {
	Name    string
	Entries []SegDesc
}

// Canonical GDT slots shared by the guest kernel and the VMM so that
// selectors remain meaningful across mode switches.
const (
	GDTNull       = 0
	GDTKernelCode = 1
	GDTKernelData = 2
	GDTUserCode   = 3
	GDTUserData   = 4
	GDTVMMCode    = 5
	GDTVMMData    = 6
	GDTSlots      = 8
)

// NewGDT builds a descriptor table with the canonical layout. kernelDPL is
// PL0 for a native kernel or the VMM's own table, PL1 for the table a
// deprivileged guest runs on.
func NewGDT(name string, kernelDPL uint8) *GDT {
	g := &GDT{Name: name, Entries: make([]SegDesc, GDTSlots)}
	g.Entries[GDTKernelCode] = SegDesc{Kind: SegCode, Limit: 0xFFFFFFFF, DPL: kernelDPL, Present: true}
	g.Entries[GDTKernelData] = SegDesc{Kind: SegData, Limit: 0xFFFFFFFF, DPL: kernelDPL, Present: true}
	g.Entries[GDTUserCode] = SegDesc{Kind: SegCode, Limit: 0xFFFFFFFF, DPL: PL3, Present: true}
	g.Entries[GDTUserData] = SegDesc{Kind: SegData, Limit: 0xFFFFFFFF, DPL: PL3, Present: true}
	g.Entries[GDTVMMCode] = SegDesc{Kind: SegCode, Limit: 0xFFFFFFFF, DPL: PL0, Present: true}
	g.Entries[GDTVMMData] = SegDesc{Kind: SegData, Limit: 0xFFFFFFFF, DPL: PL0, Present: true}
	return g
}

// KernelCS returns the kernel code selector at the table's kernel DPL.
func (g *GDT) KernelCS() Selector {
	return MakeSelector(GDTKernelCode, g.Entries[GDTKernelCode].DPL)
}

// SetKernelDPL re-privileges the kernel code/data descriptors. Mercury's
// state-transfer functions call this when flipping the kernel between PL0
// (native) and PL1 (virtual) (§5.1.2 item 2).
func (g *GDT) SetKernelDPL(dpl uint8) {
	g.Entries[GDTKernelCode].DPL = dpl
	g.Entries[GDTKernelData].DPL = dpl
}

// Vector numbers used by the simulated platform.
const (
	VecDivide       = 0
	VecDebug        = 1
	VecGP           = 13 // general protection fault
	VecPageFault    = 14
	VecTimer        = 32
	VecDisk         = 33
	VecNIC          = 34
	VecReschedIPI   = 0xFD // scheduler kick IPI
	VecModeSwitch   = 0xFE // Mercury self-virtualization interrupt (§4.1)
	VecModeSwitchAP = 0xFC // rendezvous IPI sent to the other processors (§5.4)
	NumVectors      = 256
)

// TrapFrame is the stack frame hardware pushes when delivering an
// interrupt or exception. CS and SS carry selectors whose RPL bits encode
// the interrupted privilege level; Mercury patches these during a mode
// switch so a resumed thread does not pop stale privilege bits and fault
// (§5.1.2). Returning to a frame whose selectors differ from the live
// GDT's kernel DPL raises #GP, exactly the failure the stub prevents.
type TrapFrame struct {
	Vector  int
	ErrCode uint32
	CS      Selector
	SS      Selector
	IF      bool     // interrupted EFLAGS.IF
	Addr    VirtAddr // faulting address for #PF, else 0
	Write   bool     // #PF was a write
	User    bool     // #PF came from user mode

	// Skip is set by a fault handler to abort the faulting access
	// instead of retrying it — the way a SIGSEGV handler that longjmps
	// past the instruction behaves. The CPU then completes the access
	// as a no-op.
	Skip bool
}

// Gate is one IDT entry: a handler entry point at a target privilege
// level. Handlers are Go functions standing in for the kernel's or VMM's
// assembly entry stubs.
type Gate struct {
	Present bool
	DPL     uint8 // who may raise it via software (int n)
	Target  uint8 // privilege level the handler runs at
	Handler func(c *CPU, f *TrapFrame)
}

// IDT is an interrupt descriptor table. In native mode the hardware IDTR
// points at the guest kernel's table; after a switch to virtual mode it
// points at the VMM's table, which bounces guest-bound traps (§5.1.3).
type IDT struct {
	Name  string
	Gates [NumVectors]Gate
}

// NewIDT returns an empty table.
func NewIDT(name string) *IDT { return &IDT{Name: name} }

// Set installs a gate.
func (t *IDT) Set(vector int, g Gate) {
	if vector < 0 || vector >= NumVectors {
		panic(fmt.Sprintf("hw: bad vector %d", vector))
	}
	t.Gates[vector] = g
}

// Get returns the gate for a vector.
func (t *IDT) Get(vector int) Gate {
	if vector < 0 || vector >= NumVectors {
		panic(fmt.Sprintf("hw: bad vector %d", vector))
	}
	return t.Gates[vector]
}
