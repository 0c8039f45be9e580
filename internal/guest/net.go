package guest

import (
	"repro/internal/hw"
)

// Network routing and process-level networking. Inbound frames arrive
// either from the native driver (NIC interrupt / pump) or from the
// netfront rx path, pass through the backend routing hook (frames bound
// for a hosted domainU), and land in the kernel's inbound queue.

// SetNetID assigns this kernel's link-layer address.
func (k *Kernel) SetNetID(id byte) { k.netID = id }

// NetID returns the kernel's link-layer address.
func (k *Kernel) NetID() byte { return k.netID }

// SetRxHook installs a filter that sees every inbound wire packet before
// local delivery; returning true consumes the packet (the net backend
// uses this to route domU-bound frames).
func (k *Kernel) SetRxHook(h func(c *hw.CPU, data []byte) bool) { k.rxHook = h }

// routeInbound classifies one wire packet.
func (k *Kernel) routeInbound(c *hw.CPU, data []byte) {
	c.Charge(k.M.Costs.NetStackRx)
	if k.rxHook != nil && k.rxHook(c, data) {
		return
	}
	fr, err := ParseFrame(data)
	if err != nil {
		return // runt frame: drop
	}
	if fr.Dst != k.netID {
		return // not ours: drop
	}
	k.acquire(c)
	k.netRx = append(k.netRx, fr)
	k.lk.Unlock(c)
	k.wakeAll(c, &k.netRxWait)
}

// nicISR services the NIC interrupt: drain deliverable packets.
func (k *Kernel) nicISR(c *hw.CPU) {
	if d, ok := k.Net.(*NativeNet); ok {
		d.drain(c)
	}
}

// popFrame removes the first queued frame matching proto (0 = any).
func (k *Kernel) popFrame(c *hw.CPU, proto byte) (Frame, bool) {
	k.acquire(c)
	defer k.lk.Unlock(c)
	for i, fr := range k.netRx {
		if proto == 0 || fr.Proto == proto {
			k.netRx = append(k.netRx[:i], k.netRx[i+1:]...)
			return fr, true
		}
	}
	return Frame{}, false
}

// SendFrame transmits one frame from process context.
func (p *Proc) SendFrame(fr Frame) {
	k := p.K
	fr.Src = k.netID
	p.Syscall(func(c *hw.CPU) { k.Net.Transmit(c, fr) })
}

// RecvFrame blocks until a frame with the given protocol (0 = any)
// arrives, and returns it.
func (p *Proc) RecvFrame(proto byte) Frame {
	k := p.K
	var out Frame
	p.Syscall(func(c *hw.CPU) {
		for {
			if fr, ok := k.popFrame(c, proto); ok {
				out = fr
				return
			}
			// Make receive progress: drive the device (native) or the
			// driver domain (frontend).
			if k.Net.Pump(c) {
				continue
			}
			k.sleepOn(&k.netRxWait, p)
			c = p.CPU()
		}
	})
	return out
}

// Ping sends one echo request with the given payload size and waits for
// the reply, returning the round-trip time in cycles.
func (p *Proc) Ping(dst byte, payload int) hw.Cycles {
	start := p.CPU().Now()
	p.SendFrame(Frame{Dst: dst, Proto: ProtoEcho, Payload: payload})
	_ = p.RecvFrame(ProtoEchoR)
	return p.CPU().Now() - start
}

// EchoReflector returns a hw.NIC reflector that answers ProtoEcho frames
// and swallows ProtoData (with a windowed ProtoAck for every ackEvery
// data frames, 0 = never) — the remote Iperf/ping endpoint.
func EchoReflector(localID byte, ackEvery int) func(hw.Packet) []hw.Packet {
	dataCount := 0
	return func(pkt hw.Packet) []hw.Packet {
		fr, err := ParseFrame(pkt.Data)
		if err != nil {
			return nil
		}
		switch fr.Proto {
		case ProtoEcho:
			reply := Frame{Dst: fr.Src, Src: fr.Dst, Proto: ProtoEchoR, Payload: fr.Payload}
			return []hw.Packet{{Data: reply.Marshal()}}
		case ProtoData:
			dataCount++
			if ackEvery > 0 && dataCount%ackEvery == 0 {
				ack := Frame{Dst: fr.Src, Src: fr.Dst, Proto: ProtoAck, Payload: 8}
				return []hw.Packet{{Data: ack.Marshal()}}
			}
		}
		return nil
	}
}
