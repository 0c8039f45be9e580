package xen

import (
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// The split device model (§5.2): frontend drivers in an unprivileged
// domain forward requests over shared-memory IORings to backend drivers
// in the driver domain, which own the real hardware. The backends
// (BlkMQBackend in blkmq.go, NetBackend below) are the driver-domain
// halves; the frontends live in internal/guest.

// BlockDevice is what a backend drives: the driver domain's native block
// driver (which wraps hw.Disk and charges its own stack costs).
//
// hw.Disk returns zeros for a hole, a block it does not store. A read
// need not fill every byte of buf, though: a device may leave a block it
// never stored untouched. The backend reuses one staging buffer per
// queue, so it clears a read's buffer before Submit; otherwise a read
// of such a block would hand one frontend another's earlier payload.
type BlockDevice interface {
	Submit(c *hw.CPU, req hw.DiskRequest, buf []byte) error
}

// PacketDevice is the driver domain's native network driver.
type PacketDevice interface {
	Transmit(c *hw.CPU, data []byte)
}

// BlkRequest is one block I/O request on a blkif ring.
type BlkRequest struct {
	ID    uint64
	Block uint64
	Write bool
	Grant GrantRef // frame holding (or receiving) the data
	Front DomID    // granting domain
}

// BlkResponse completes a BlkRequest.
type BlkResponse struct {
	ID  uint64
	Err string
}

// NetTxRequest carries one outbound packet (already framed by the guest
// net stack) through a netif ring.
type NetTxRequest struct {
	ID    uint64
	Grant GrantRef
	Front DomID
	Len   int
}

// NetTxResponse completes a NetTxRequest.
type NetTxResponse struct {
	ID  uint64
	Err string
}

// NetRxBuffer is an empty receive buffer the frontend posts.
type NetRxBuffer struct {
	ID    uint64
	Grant GrantRef
	Front DomID
}

// NetRxDone tells the frontend a posted buffer now holds a packet.
type NetRxDone struct {
	ID  uint64
	Len int
	Err string
}

// netBurst bounds how many netif slots one drain step moves; the
// buffers live on the stack, so concurrent upcalls share nothing.
const netBurst = 16

// NetBackend is the driver-domain network backend: a TX ring of granted
// outbound frames and an RX ring of posted empty buffers, both IORings,
// so transmit doorbells and completion notifies follow the event-index
// protocol.
type NetBackend struct {
	V      *VMM
	Dom    *Domain
	Dev    PacketDevice
	TxRing *IORing[NetTxRequest, NetTxResponse]
	RxRing *IORing[NetRxBuffer, NetRxDone]
	Notify func(c *hw.CPU) // kicks the frontend (event channel send)

	Stats NetBackendStats
}

// NetBackendStats counts backend activity. The packet counters are
// adopted into the telemetry registry at construction, where each
// series sums them over every net backend built on the collector.
type NetBackendStats struct {
	TxPackets, RxPackets *obs.Counter
	RxDropped            atomic.Uint64
}

// NewNetBackend builds the netif ring pair (depth slots per direction)
// serving dev from dom. Event-channel wiring is the caller's.
func NewNetBackend(v *VMM, dom *Domain, dev PacketDevice, depth int) *NetBackend {
	nb := &NetBackend{
		V: v, Dom: dom, Dev: dev,
		TxRing: NewIORing[NetTxRequest, NetTxResponse](depth, v.M.Costs),
		RxRing: NewIORing[NetRxBuffer, NetRxDone](depth, v.M.Costs),
		Stats:  NetBackendStats{TxPackets: obs.NewCounter(), RxPackets: obs.NewCounter()},
	}
	if col := v.M.Telemetry(); col != nil {
		col.Registry.RegisterCounter(nb.Stats.TxPackets, "xen", "backend_packets_total",
			obs.L("dev", "net"), obs.L("dir", "tx"))
		col.Registry.RegisterCounter(nb.Stats.RxPackets, "xen", "backend_packets_total",
			obs.L("dev", "net"), obs.L("dir", "rx"))
	}
	return nb
}

// OnEvent drains pending transmit requests, hands each granted frame to
// the native driver, and pushes the completions. The FINAL CHECK re-arm
// catches a frame queued during the drain.
func (nb *NetBackend) OnEvent(c *hw.CPU) {
	var sp obs.SpanRef
	if h := nb.V.tel(); h != nil {
		sp = obs.Begin(h.col, c.ID, c.Now(), "xen/net-backend-event")
	}
	var reqs [netBurst]NetTxRequest
	var resps [netBurst]NetTxResponse
	tx, notify := uint64(0), false
	for {
		n := nb.TxRing.TakeRequests(c, reqs[:])
		if n == 0 {
			if !nb.TxRing.FinishRequestConsume(c, 1) {
				break
			}
			continue
		}
		for i, q := range reqs[:n] {
			resps[i] = NetTxResponse{ID: q.ID}
			if err := nb.transmit(c, q); err != nil {
				resps[i].Err = err.Error()
				continue
			}
			tx++
		}
		if nb.TxRing.PushResponses(c, resps[:n]) {
			notify = true
		}
	}
	sp.EndArg(c.Now(), tx)
	if notify && nb.Notify != nil {
		nb.Notify(c)
	}
}

// transmit copies one granted frame out and sends it.
func (nb *NetBackend) transmit(c *hw.CPU, q NetTxRequest) error {
	pfn, unmap, err := nb.V.GrantMap(c, nb.Dom, q.Front, q.Grant, false)
	if err != nil {
		return err
	}
	n := min(q.Len, hw.PageSize)
	data := make([]byte, n)
	c.Charge(nb.V.M.Costs.PageCopy)
	copy(data, nb.V.M.Mem.FrameBytesRO(pfn)[:n])
	unmap()
	nb.Dev.Transmit(c, data)
	nb.Stats.TxPackets.Inc()
	return nil
}

// DeliverRx pushes one inbound packet into a posted frontend buffer.
// The driver domain's native receive path calls it for packets addressed
// to the frontend. Returns false (and drops) if no buffer is posted.
func (nb *NetBackend) DeliverRx(c *hw.CPU, data []byte) bool {
	var post [1]NetRxBuffer
	if nb.RxRing.TakeRequests(c, post[:]) == 0 {
		nb.Stats.RxDropped.Add(1)
		return false
	}
	done := [1]NetRxDone{{ID: post[0].ID}}
	pfn, unmap, err := nb.V.GrantMap(c, nb.Dom, post[0].Front, post[0].Grant, true)
	if err != nil {
		done[0].Err = err.Error()
	} else {
		n := min(len(data), hw.PageSize)
		c.Charge(nb.V.M.Costs.PageCopy)
		copy(nb.V.M.Mem.FrameBytes(pfn)[:n], data[:n])
		unmap()
		nb.Stats.RxPackets.Inc()
		done[0].Len = n
	}
	if nb.RxRing.PushResponses(c, done[:]) && nb.Notify != nil {
		nb.Notify(c)
	}
	return err == nil
}
