package xen

import (
	"fmt"

	"repro/internal/hw"
)

// Port numbers an event channel endpoint within one domain.
type Port int

type chanState uint8

const (
	chanFree chanState = iota
	chanUnbound
	chanInterdomain
)

// channel is one endpoint in a domain's event-channel table. Event
// channels are Xen's virtual interrupt lines: the frontend/backend split
// drivers notify each other through them (§5.2).
type channel struct {
	state      chanState
	allowedDom DomID // who may bind to an unbound port
	remoteDom  DomID
	remotePort Port
	pending    bool
	handler    func(c *hw.CPU)
}

// allocPort finds or grows a free slot in d's table.
func (d *Domain) allocPort() Port {
	for i, ch := range d.ports {
		if ch.state == chanFree {
			return Port(i)
		}
	}
	d.ports = append(d.ports, &channel{})
	return Port(len(d.ports) - 1)
}

// SetPortHandler binds a local callback to a port; the upcall dispatcher
// invokes it when the port is pending. This is guest-local state, not a
// hypercall.
func (d *Domain) SetPortHandler(p Port, h func(c *hw.CPU)) {
	d.ports[p].handler = h
}

// EvtchnAllocUnbound creates a port in d that remote may later bind to.
func (v *VMM) EvtchnAllocUnbound(c *hw.CPU, d *Domain, remote DomID) Port {
	defer v.exit(c, d, v.enter(c, d))
	p := d.allocPort()
	d.ports[p].state = chanUnbound
	d.ports[p].allowedDom = remote
	return p
}

// EvtchnBindInterdomain connects a new port in d to remoteDom's
// unbound remotePort, completing the pair.
func (v *VMM) EvtchnBindInterdomain(c *hw.CPU, d *Domain, remoteDom DomID, remotePort Port) (Port, error) {
	defer v.exit(c, d, v.enter(c, d))
	rd, ok := v.Domains[remoteDom]
	if !ok {
		return 0, fmt.Errorf("xen: bind to nonexistent dom%d", remoteDom)
	}
	if remotePort < 0 || int(remotePort) >= len(rd.ports) || rd.ports[remotePort].state != chanUnbound {
		return 0, fmt.Errorf("xen: dom%d port %d not unbound", remoteDom, remotePort)
	}
	if rd.ports[remotePort].allowedDom != d.ID {
		return 0, fmt.Errorf("xen: dom%d port %d not offered to dom%d",
			remoteDom, remotePort, d.ID)
	}
	p := d.allocPort()
	d.ports[p].state = chanInterdomain
	d.ports[p].remoteDom = remoteDom
	d.ports[p].remotePort = remotePort
	rd.ports[remotePort].state = chanInterdomain
	rd.ports[remotePort].remoteDom = d.ID
	rd.ports[remotePort].remotePort = p
	return p, nil
}

// EvtchnConnect opens a one-way channel from `from` to `to`, the way a
// split driver binds a doorbell: `to` offers an unbound port, h serves
// it, and `from` binds to it. It returns from's port, the one to send
// on.
func (v *VMM) EvtchnConnect(c *hw.CPU, from, to *Domain, h func(*hw.CPU)) (Port, error) {
	p := v.EvtchnAllocUnbound(c, to, from.ID)
	to.SetPortHandler(p, h)
	return v.EvtchnBindInterdomain(c, from, to.ID, p)
}

// EvtchnSend raises the event bound to d's port p. If the remote domain
// is runnable and not already on this physical CPU's dispatch stack, the
// VMM switches to it and delivers the upcall synchronously (the
// uniprocessor Xen behaviour); otherwise the event stays pending until
// the remote next runs or re-enables its virtual IF.
func (v *VMM) EvtchnSend(c *hw.CPU, d *Domain, p Port) error {
	defer v.exit(c, d, v.enter(c, d))
	rd, err := v.evtchnSend(c, d, p)
	if err != nil {
		return err
	}
	v.maybeDeliverUpcall(c, rd)
	return nil
}

// evtchnSend is an event send's body (EvtchnSend, MCEvtchnSend): it
// validates the port, charges the send and marks the remote end
// pending. It returns the remote domain, whose upcall the caller
// delivers: EvtchnSend at once, HypMulticall after the batch, once the
// MMU lock has dropped.
func (v *VMM) evtchnSend(c *hw.CPU, d *Domain, p Port) (*Domain, error) {
	if p < 0 || int(p) >= len(d.ports) || d.ports[p].state != chanInterdomain {
		return nil, fmt.Errorf("xen: dom%d send on invalid port %d", d.ID, p)
	}
	ch := d.ports[p]
	rd := v.Domains[ch.remoteDom]
	if rd == nil {
		return nil, fmt.Errorf("xen: dom%d send to vanished dom%d", d.ID, ch.remoteDom)
	}
	c.Charge(v.M.Costs.EventSend)
	d.Stats.EventsOut.Add(1)
	v.traceInstant(c, "xen/event-send", uint64(p))
	rd.ports[ch.remotePort].pending = true
	c.WakeHalted(hw.VecReschedIPI, true) // a vCPU blocked on another CPU rechecks
	return rd, nil
}

// maybeDeliverUpcall switches to rd and drains its pending ports if it is
// interruptible and not already active on this CPU.
func (v *VMM) maybeDeliverUpcall(c *hw.CPU, rd *Domain) {
	if !rd.VCPU0().VIF() || rd.State != DomRunning {
		return
	}
	if v.onStack(c, rd) {
		return // will drain when control returns to rd
	}
	v.RunInDomain(c, rd, func() {
		v.drainPending(c, rd)
	})
}

// drainPending invokes handlers for every pending port of d. Must run
// with d current.
func (v *VMM) drainPending(c *hw.CPU, d *Domain) {
	for {
		progress := false
		for _, ch := range d.ports {
			if ch.pending && ch.handler != nil {
				ch.pending = false
				c.Charge(v.M.Costs.EventDeliver)
				ch.handler(c)
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// SetVIF sets the domain's virtual interrupt flag — the paravirtual
// replacement for cli/sti, costing only a shared-memory write. Enabling
// it drains any events that went pending while masked.
func (v *VMM) SetVIF(c *hw.CPU, d *Domain, on bool) {
	c.Charge(v.M.Costs.MemWrite)
	d.VCPU0().SetVIF(on)
	if on && !v.onStack(c, d) {
		// A real guest gets its upcall on the next VMM entry; close
		// enough to deliver now.
		hasPending := false
		for _, ch := range d.ports {
			if ch.pending && ch.handler != nil {
				hasPending = true
				break
			}
		}
		if hasPending {
			v.RunInDomain(c, d, func() { v.drainPending(c, d) })
		}
	} else if on {
		v.drainPending(c, d)
	}
}
