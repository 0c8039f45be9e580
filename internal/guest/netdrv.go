package guest

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/xen"
)

// Frame is one network frame in the simulation's trivial link format:
// a three-byte header (destination id, source id, protocol) followed by
// the payload.
type Frame struct {
	Dst, Src, Proto byte
	Payload         int    // payload length
	Data            []byte // payload bytes (may be shorter than Payload;
	// the wire carries Payload bytes regardless)
}

// Frame protocols.
const (
	ProtoEcho  byte = 1 // ping request; reflectors answer with ProtoEchoR
	ProtoEchoR byte = 2
	ProtoData  byte = 3 // iperf-style stream data
	ProtoAck   byte = 4
	ProtoMigr  byte = 5 // live-migration transport
)

// frameHeader is the wire header size.
const frameHeader = 3

// Marshal serializes the frame for the wire.
func (f Frame) Marshal() []byte {
	out := make([]byte, frameHeader+f.Payload)
	out[0], out[1], out[2] = f.Dst, f.Src, f.Proto
	copy(out[frameHeader:], f.Data)
	return out
}

// ParseFrame decodes a wire packet.
func ParseFrame(b []byte) (Frame, error) {
	if len(b) < frameHeader {
		return Frame{}, fmt.Errorf("guest: short frame (%d bytes)", len(b))
	}
	return Frame{
		Dst: b[0], Src: b[1], Proto: b[2],
		Payload: len(b) - frameHeader,
		Data:    b[frameHeader:],
	}, nil
}

// NetDriver is the kernel's network attachment point — the other
// virtualization-sensitive I/O surface (§3.2.4).
type NetDriver interface {
	Transmit(c *hw.CPU, fr Frame)
	// Pump makes receive progress when the kernel is waiting for a
	// frame: the native driver blocks on the NIC; the frontend asks the
	// driver domain to service the hardware. Returns false if no
	// progress is possible.
	Pump(c *hw.CPU) bool
}

// NativeNet drives the machine's NIC directly.
type NativeNet struct {
	K   *Kernel
	NIC *hw.NIC
}

// virtIRQ charges the physical-interrupt virtualization cost when the
// driver domain runs on a VMM: the device IRQ enters the hypervisor,
// becomes an event upcall, and the EOI needs a hypercall. On bare
// hardware this path is just the architectural IRQ cost (already charged
// at delivery).
func (d *NativeNet) virtIRQ(c *hw.CPU) {
	if d.K.VO().Virtualized() {
		c.Charge(d.K.M.Costs.PhysIRQVirt)
	}
}

// Transmit sends one frame. Each transmitted packet completes with a
// tx-done interrupt (the r8169 does not coalesce).
func (d *NativeNet) Transmit(c *hw.CPU, fr Frame) {
	c.Charge(d.K.M.Costs.NetStackTx)
	d.NIC.Transmit(c, hw.Packet{Data: fr.Marshal()})
	d.virtIRQ(c)
}

// Pump blocks on the NIC for the next packet and routes it. If the
// kernel has to wait (idle until the rx interrupt) and runs on a VMM,
// the VMM scheduler's wake-up latency applies: the vcpu blocked and the
// event must dispatch it again.
func (d *NativeNet) Pump(c *hw.CPU) bool {
	pkt, ok := d.NIC.Receive(c, true)
	if !ok {
		return false
	}
	// The packet has hit the wire; everything from here is processing
	// delay on top of its arrival time. On a VMM the blocked vcpu must
	// first be re-dispatched by the hypervisor scheduler.
	if d.K.VO().Virtualized() {
		c.Charge(d.K.M.Costs.DomSchedLatency)
	}
	d.virtIRQ(c)
	d.K.routeInbound(c, pkt.Data)
	return true
}

// RawDevice adapts the native driver to the backend's PacketDevice:
// pre-framed wire bytes the driver domain sends for a frontend.
func (d *NativeNet) RawDevice() xen.PacketDevice { return rawNet{d} }

type rawNet struct{ d *NativeNet }

func (r rawNet) Transmit(c *hw.CPU, data []byte) {
	c.Charge(r.d.K.M.Costs.NetStackTx)
	r.d.NIC.Transmit(c, hw.Packet{Data: data})
}

// drain routes every packet deliverable right now (interrupt service).
func (d *NativeNet) drain(c *hw.CPU) {
	for {
		pkt, ok := d.NIC.Receive(c, false)
		if !ok {
			return
		}
		d.virtIRQ(c)
		d.K.routeInbound(c, pkt.Data)
	}
}

// FrontendNet is netfront: transmits via grant+ring+event to the driver
// domain, receives into pre-posted granted buffers. Both directions are
// xen.IORings: a transmit rings the doorbell only when its push crosses
// the backend's wake mark, and the receive drain re-arms with the
// FINAL CHECK.
type FrontendNet struct {
	K       *Kernel
	V       *xen.VMM
	D       *xen.Domain
	Backend xen.DomID
	TxRing  *xen.IORing[xen.NetTxRequest, xen.NetTxResponse]
	RxRing  *xen.IORing[xen.NetRxBuffer, xen.NetRxDone]
	TxKick  xen.Port
	// PumpBackend asks the driver domain to service the physical NIC
	// (stands in for the hardware interrupt that would schedule it).
	PumpBackend func(c *hw.CPU) bool

	nextID uint64
	rxPost map[uint64]rxPosted
}

type rxPosted struct {
	pfn   hw.PFN
	grant xen.GrantRef
}

// rxDepth is how many receive buffers stay posted; it is far below the
// ring's capacity, so a replenish always fits.
const rxDepth = 16

// ReplenishRx posts receive buffers, in one push, until rxDepth are
// outstanding. The backend consumes them as packets arrive, so the
// push needs no doorbell.
func (d *FrontendNet) ReplenishRx(c *hw.CPU) {
	if d.rxPost == nil {
		d.rxPost = make(map[uint64]rxPosted)
	}
	var bufs [rxDepth]xen.NetRxBuffer
	n := 0
	for ; len(d.rxPost) < rxDepth; n++ {
		pfn := d.K.allocFrame(c, false)
		ref := d.D.GrantAccess(c, d.Backend, pfn, false)
		d.rxPost[d.nextID] = rxPosted{pfn: pfn, grant: ref}
		bufs[n] = xen.NetRxBuffer{ID: d.nextID, Grant: ref, Front: d.D.ID}
		d.nextID++
	}
	if n == 0 {
		return
	}
	if pushed, _ := d.RxRing.PushRequests(c, bufs[:n]); pushed != n {
		panic(fmt.Sprintf("guest: netfront rx ring took %d of %d buffers", pushed, n))
	}
}

// Transmit copies the frame into a bounce frame, grants it, pushes it,
// kicks the backend when the push says to, and reaps the completion.
func (d *FrontendNet) Transmit(c *hw.CPU, fr Frame) {
	c.Charge(d.K.M.Costs.NetStackTx)
	data := fr.Marshal()
	pfn := d.K.allocFrame(c, false)
	c.Charge(d.K.M.Costs.PageCopy)
	copy(d.K.M.Mem.FrameBytes(pfn), data)
	ref := d.D.GrantAccess(c, d.Backend, pfn, true)
	req := [1]xen.NetTxRequest{{ID: d.nextID, Grant: ref, Front: d.D.ID, Len: len(data)}}
	d.nextID++
	n, notify := d.TxRing.PushRequests(c, req[:])
	if n != 1 {
		panic("guest: netfront tx ring overflow")
	}
	if notify {
		if err := d.V.EvtchnSend(c, d.D, d.TxKick); err != nil {
			panic(fmt.Sprintf("guest: netfront kick: %v", err))
		}
	}
	// The backend ran synchronously on the doorbell; reap completions.
	// Transmit polls them, so it never re-arms a completion notify.
	var done [8]xen.NetTxResponse
	for m := d.TxRing.TakeResponses(c, done[:]); m > 0; m = d.TxRing.TakeResponses(c, done[:]) {
		for _, resp := range done[:m] {
			if resp.Err != "" {
				panic(fmt.Sprintf("guest: netfront tx: %s", resp.Err))
			}
		}
	}
	if err := d.D.GrantEnd(c, ref); err != nil {
		panic(fmt.Sprintf("guest: netfront: %v", err))
	}
	d.K.Frames.Free(pfn)
}

// HandleRxEvent drains completed receive buffers into the kernel's
// inbound queue, re-arming the completion notify with the FINAL CHECK,
// then replenishes the posted buffers; bound to the frontend's
// event-channel port.
func (d *FrontendNet) HandleRxEvent(c *hw.CPU) {
	var done [rxDepth]xen.NetRxDone
	for {
		n := d.RxRing.TakeResponses(c, done[:])
		if n == 0 {
			if !d.RxRing.FinishResponseConsume(c, 1) {
				break
			}
			continue
		}
		for _, r := range done[:n] {
			post, known := d.rxPost[r.ID]
			if !known {
				continue
			}
			delete(d.rxPost, r.ID)
			if r.Err == "" {
				data := make([]byte, r.Len)
				c.Charge(d.K.M.Costs.PageCopy)
				copy(data, d.K.M.Mem.FrameBytesRO(post.pfn)[:r.Len])
				d.K.routeInbound(c, data)
			}
			if err := d.D.GrantEnd(c, post.grant); err == nil {
				d.K.Frames.Free(post.pfn)
			}
		}
	}
	d.ReplenishRx(c)
}

// Pump asks the driver domain to service the NIC, then drains whatever
// arrived for us.
func (d *FrontendNet) Pump(c *hw.CPU) bool {
	if !d.PumpBackend(c) {
		return false
	}
	d.HandleRxEvent(c)
	return true
}
