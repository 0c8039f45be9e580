package hw

import (
	"sync"
	"sync/atomic"
)

// Packet is one network frame.
type Packet struct {
	Data    []byte
	ReadyAt Cycles // receive-side cycle count at which it is visible
}

// LinkProps describes the wire between two endpoints: the paper's setup
// uses a 100 Mb LAN for the application benchmarks and a Gigabit switch
// for Iperf; migration runs over the Gigabit link too.
type LinkProps struct {
	BandwidthBps uint64 // payload bandwidth
	LatencyCyc   Cycles // one-way latency in receiver cycles
}

// LAN100 is the 100 Mb LAN the testbed NIC sits on.
func LAN100() LinkProps {
	return LinkProps{BandwidthBps: 100_000_000, LatencyCyc: 110_000}
}

// Gigabit is the Iperf/migration switch.
func Gigabit() LinkProps {
	return LinkProps{BandwidthBps: 1_000_000_000, LatencyCyc: 45_000}
}

// NIC is a network interface. Transmission charges the issuing CPU the
// driver-independent hardware cost; driver/stack costs are charged by the
// guest's driver layer. Its far end is a Reflector that synthesizes
// replies, standing in for the remote ping/Iperf endpoint.
type NIC struct {
	m    *Machine
	line int

	mu   sync.Mutex
	rxq  []Packet
	link LinkProps

	// Reflector, when set, is invoked for each transmitted packet and
	// returns reply packets to be queued locally after a full RTT plus
	// the synthetic remote's processing delay.
	Reflector    func(Packet) []Packet
	ReflectDelay Cycles // remote endpoint processing time per packet

	Stats NICStats
}

// NICStats counts device activity (atomic: any CPU may drive the NIC).
type NICStats struct {
	TxPackets, RxPackets atomic.Uint64
}

// NewNIC builds the machine's NIC on the given IO-APIC line, attached to
// the 100 Mb LAN by default.
func NewNIC(m *Machine, line int) *NIC {
	return &NIC{m: m, line: line, link: LAN100()}
}

// SetLink changes the wire properties.
func (n *NIC) SetLink(p LinkProps) { n.link = p }

// Transmit sends one packet from c's machine. Hardware cost (DMA ring,
// doorbell) is charged here; the guest's driver layer charges its own
// per-packet stack cost on top.
func (n *NIC) Transmit(c *CPU, p Packet) {
	c.Charge(n.m.Costs.NICPerPkt)
	kb := Cycles((len(p.Data) + 1023) / 1024)
	c.Charge(kb * n.m.Costs.NICPerKB)
	n.Stats.TxPackets.Add(1)

	if n.Reflector != nil {
		replies := n.Reflector(p)
		rtt := 2*n.link.LatencyCyc + 2*n.wireCycles(len(p.Data)) + n.ReflectDelay
		for _, r := range replies {
			r.ReadyAt = c.Now() + rtt
			n.enqueue(c, r)
		}
	}
}

// wireCycles converts a payload size to serialization delay in cycles.
func (n *NIC) wireCycles(bytes int) Cycles {
	if n.link.BandwidthBps == 0 {
		return 0
	}
	return Cycles(uint64(bytes) * 8 * n.m.Hz / n.link.BandwidthBps)
}

// WireCycles exposes serialization delay for throughput accounting.
func (n *NIC) WireCycles(bytes int) Cycles { return n.wireCycles(bytes) }

func (n *NIC) enqueue(from *CPU, p Packet) {
	n.mu.Lock()
	n.rxq = append(n.rxq, p)
	n.mu.Unlock()
	n.m.IOAPIC.Raise(from, n.line)
}

// Receive pops the next packet visible at or before the CPU's current
// time. If block is true and a packet is queued in the future, the CPU
// idles forward to its arrival. Returns ok=false only when non-blocking
// and nothing is deliverable.
func (n *NIC) Receive(c *CPU, block bool) (Packet, bool) {
	for {
		n.mu.Lock()
		if len(n.rxq) > 0 {
			p := n.rxq[0]
			now := c.Now()
			if p.ReadyAt <= now {
				n.rxq = n.rxq[1:]
				n.mu.Unlock()
				n.Stats.RxPackets.Add(1)
				c.Charge(n.m.Costs.NICPerPkt)
				return p, true
			}
			if block {
				// Idle until the packet arrives.
				wait := p.ReadyAt - now
				n.mu.Unlock()
				c.Stats.IdleCycles += wait
				c.Clk.Advance(wait)
				continue
			}
		}
		n.mu.Unlock()
		if !block {
			return Packet{}, false
		}
		c.IdleUntil(func() bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return len(n.rxq) > 0
		})
	}
}

// Pending reports the number of queued packets (regardless of ReadyAt).
func (n *NIC) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.rxq)
}
