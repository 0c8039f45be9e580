package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/vo"
	"repro/internal/xen"
)

// SystemKey names one measured configuration, using the paper's labels.
type SystemKey string

// The six configurations of §7.
const (
	NL SystemKey = "N-L" // native Linux (unmodified kernel on bare hardware)
	MN SystemKey = "M-N" // Mercury-Linux, native mode
	X0 SystemKey = "X-0" // Xen-Linux domain0 (always-on VMM, driver domain)
	MV SystemKey = "M-V" // Mercury-Linux, (partial-)virtual mode
	XU SystemKey = "X-U" // Xen-Linux domainU (split I/O)
	MU SystemKey = "M-U" // unmodified domU hosted on self-virtualized Mercury
)

// AllSystems lists the measured configurations in the paper's column
// order.
var AllSystems = []SystemKey{NL, MN, X0, MV, XU, MU}

// System is one built configuration, ready to run workloads.
type System struct {
	Key     SystemKey
	M       *hw.Machine
	K       *guest.Kernel // the measured kernel
	Mercury *core.Mercury // non-nil for M-N / M-V / M-U
	VMM     *xen.VMM      // non-nil when a VMM exists
	Dom     *xen.Domain   // measured kernel's domain, when virtualized
	Driver  *guest.Kernel // driver-domain kernel when split I/O is used
	NCPU    int
}

// MeasuredNetID is the link-layer address of the measured kernel; the
// test-harness reflector answers frames addressed from it.
const MeasuredNetID byte = 1

// driverNetID is the driver domain's own address in split-I/O setups.
const driverNetID byte = 9

// Options tweaks system construction.
type Options struct {
	NCPU     int
	MemBytes uint64
	Costs    *hw.CostModel
	// Policy selects Mercury's frame-tracking strategy (M-* systems).
	Policy core.TrackingPolicy
	// AckEvery configures the synthetic remote's ack window for stream
	// traffic (0 = pure sink).
	AckEvery int
	// Collector, when non-nil, is installed on the built machine before
	// construction so boot-time instrumentation (vo objects, the VMM)
	// registers into it.
	Collector *obs.Collector
	// LazyMMU enables the kernels' lazy-MMU multicall batching (see
	// guest.Config.LazyMMU). Off by default: the Table 1 reproduction
	// measures the unbatched per-entry hypercall stream.
	LazyMMU bool
}

func (o *Options) fill() {
	if o.NCPU == 0 {
		o.NCPU = 1
	}
	if o.MemBytes == 0 {
		o.MemBytes = 128 << 20
	}
}

// Build constructs the configuration named by key.
func Build(key SystemKey, opt Options) (*System, error) {
	opt.fill()
	cfg := hw.DefaultConfig()
	cfg.NumCPUs = opt.NCPU
	cfg.MemBytes = opt.MemBytes
	if opt.Costs != nil {
		cfg.Costs = opt.Costs
	}
	m := hw.NewMachine(cfg)
	m.NIC.Reflector = guest.EchoReflector(MeasuredNetID, opt.AckEvery)
	m.NIC.ReflectDelay = 18_000 // remote endpoint per-packet processing
	if opt.Collector != nil {
		m.SetTelemetry(opt.Collector)
	}

	s := &System{Key: key, M: m, NCPU: opt.NCPU}
	var err error
	switch key {
	case NL:
		err = s.buildNative(opt)
	case MN:
		err = s.buildMercury(core.ModeNative, opt)
	case MV:
		err = s.buildMercury(core.ModePartialVirtual, opt)
	case X0:
		err = s.buildXenDom0(opt)
	case XU:
		err = s.buildXenDomU(opt)
	case MU:
		err = s.buildMercuryDomU(opt)
	default:
		err = fmt.Errorf("bench: unknown system %q", key)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildNative is N-L: the unmodified kernel directly on hardware.
func (s *System) buildNative(opt Options) error {
	k, err := guest.Boot(s.M, guest.Config{
		Name: "linux", VO: vo.NewDirect(s.M), Frames: s.M.Frames, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.K = k
	s.attachNativeDrivers(k)
	k.SetNetID(MeasuredNetID)
	return nil
}

// buildMercury is M-N / M-V: the self-virtualizable system, optionally
// switched to virtual mode after boot.
func (s *System) buildMercury(mode core.Mode, opt Options) error {
	mc, err := core.New(core.Config{
		Machine: s.M, Policy: opt.Policy, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.Mercury = mc
	s.VMM = mc.VMM
	s.Dom = mc.Dom
	s.K = mc.K
	s.attachNativeDrivers(mc.K)
	mc.K.SetNetID(MeasuredNetID)
	if mode != core.ModeNative {
		if err := mc.SwitchSync(s.M.BootCPU(), mode); err != nil {
			return err
		}
	}
	return nil
}

// buildXenDom0 is X-0: an always-on VMM with the measured kernel as the
// privileged driver domain.
func (s *System) buildXenDom0(opt Options) error {
	v, err := xen.Boot(s.M)
	if err != nil {
		return err
	}
	s.VMM = v
	for _, c := range s.M.CPUs {
		v.Activate(c)
	}
	nframes := hw.PFN(s.M.Frames.Available())
	dom0, err := v.CreateDomain("dom0", nframes, true)
	if err != nil {
		return err
	}
	s.Dom = dom0
	for _, c := range s.M.CPUs {
		v.SetCurrent(c, dom0)
	}
	k, err := guest.Boot(s.M, guest.Config{
		Name: "xen-linux-dom0", VO: vo.NewVirtual(v, dom0),
		Frames: dom0.Frames, Dom: dom0, VMM: v, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.K = k
	s.attachNativeDrivers(k)
	k.SetNetID(MeasuredNetID)
	s.M.BootCPU().SetMode(hw.PL1)
	return nil
}

// buildXenDomU is X-U: an always-on VMM, a service dom0 running the
// backends, and the measured kernel as an unprivileged domain with
// split frontend drivers.
func (s *System) buildXenDomU(opt Options) error {
	v, err := xen.Boot(s.M)
	if err != nil {
		return err
	}
	s.VMM = v
	for _, c := range s.M.CPUs {
		v.Activate(c)
	}
	avail := hw.PFN(s.M.Frames.Available())
	dom0Frames := avail / 4
	dom0, err := v.CreateDomain("dom0", dom0Frames, true)
	if err != nil {
		return err
	}
	boot := s.M.BootCPU()
	v.SetCurrent(boot, dom0)
	dom0K, err := guest.Boot(s.M, guest.Config{
		Name: "xen-linux-dom0", VO: vo.NewVirtual(v, dom0),
		Frames: dom0.Frames, Dom: dom0, VMM: v, ServiceOnly: true,
	})
	if err != nil {
		return err
	}
	s.Driver = dom0K
	s.attachNativeDrivers(dom0K)
	dom0K.SetNetID(driverNetID)

	domU, err := v.CreateDomain("domU", hw.PFN(s.M.Frames.Available()), false)
	if err != nil {
		return err
	}
	s.Dom = domU
	for _, c := range s.M.CPUs {
		v.SetCurrent(c, domU)
	}
	domUK, err := guest.Boot(s.M, guest.Config{
		Name: "xen-linux-domU", VO: vo.NewVirtual(v, domU),
		Frames: domU.Frames, Dom: domU, VMM: v, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.K = domUK
	domUK.SetNetID(MeasuredNetID)
	WireSplitDrivers(boot, v, dom0K, dom0, domUK, domU)
	boot.SetMode(hw.PL1)
	return nil
}

// buildMercuryDomU is M-U: Mercury switched to partial-virtual mode,
// hosting an unmodified Xen-Linux domU through its backends.
func (s *System) buildMercuryDomU(opt Options) error {
	mc, err := core.New(core.Config{
		Machine: s.M, Policy: opt.Policy, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.Mercury = mc
	s.VMM = mc.VMM
	s.attachNativeDrivers(mc.K)
	mc.K.SetNetID(driverNetID)
	boot := s.M.BootCPU()
	if err := mc.SwitchSync(boot, core.ModePartialVirtual); err != nil {
		return err
	}
	s.Driver = mc.K

	// The self-virtualized OS (now the driver domain) hosts an
	// unmodified guest.
	nframes := hw.PFN(mc.K.Frames.Available() / 2)
	// Domain memory comes from the machine pool in stock Xen; under
	// Mercury the driver domain donates part of its own partition.
	domU, err := mc.VMM.HypDomctlCreateFromFrames(boot, mc.Dom, "domU", nframes)
	if err != nil {
		return err
	}
	s.Dom = domU
	for _, c := range s.M.CPUs {
		mc.VMM.SetCurrent(c, domU)
	}
	domUK, err := guest.Boot(s.M, guest.Config{
		Name: "xen-linux-domU", VO: vo.NewVirtual(mc.VMM, domU),
		Frames: domU.Frames, Dom: domU, VMM: mc.VMM, LazyMMU: opt.LazyMMU,
	})
	if err != nil {
		return err
	}
	s.K = domUK
	domUK.SetNetID(MeasuredNetID)
	WireSplitDrivers(boot, mc.VMM, mc.K, mc.Dom, domUK, domU)
	boot.SetMode(hw.PL1)
	return nil
}

// attachNativeDrivers binds the kernel to the machine's devices.
func (s *System) attachNativeDrivers(k *guest.Kernel) {
	k.Blk = &guest.NativeBlock{K: k, Disk: s.M.Disk}
	k.Net = &guest.NativeNet{K: k, NIC: s.M.NIC}
}

// WireSplitDrivers connects a frontend kernel to backends in the driver
// domain: block and network rings, grant-backed buffers, and the event
// channels between them (§5.2).
func WireSplitDrivers(c *hw.CPU, v *xen.VMM,
	drvK *guest.Kernel, drv *xen.Domain,
	feK *guest.Kernel, fe *xen.Domain) {

	// --- block: one queue per vCPU, classic wake-on-first doorbells,
	// and the driver domain's write-behind cache (§7.3) ---
	blkBE := xen.NewBlkMQBackend(v, drv, drvK.Blk.(*guest.NativeBlock).RawDevice(),
		len(v.M.CPUs), xen.DefaultRingSize, 1)
	blkBE.WriteBehind = true
	blkFE := guest.NewMQBlockFrontend(v, fe, drv.ID, 1)
	if err := blkFE.Connect(c, blkBE); err != nil {
		panic(fmt.Sprintf("bench: wiring blk queues: %v", err))
	}
	feK.Blk = blkFE

	// --- network ---
	netBE := xen.NewNetBackend(v, drv, drvK.Net.(*guest.NativeNet).RawDevice(), xen.DefaultRingSize)
	// Frontend kick (tx) channel.
	txPortFE, err := v.EvtchnConnect(c, fe, drv, netBE.OnEvent)
	if err != nil {
		panic(fmt.Sprintf("bench: wiring net tx channel: %v", err))
	}
	feNet := &guest.FrontendNet{
		K: feK, V: v, D: fe, Backend: drv.ID,
		TxRing: netBE.TxRing, RxRing: netBE.RxRing, TxKick: txPortFE,
		PumpBackend: func(pc *hw.CPU) bool {
			ok := false
			v.RunInDomain(pc, drv, func() { ok = drvK.Net.Pump(pc) })
			return ok
		},
	}
	feK.Net = feNet
	// Backend notify (rx) channel.
	rxPortBE, err := v.EvtchnConnect(c, drv, fe, feNet.HandleRxEvent)
	if err != nil {
		panic(fmt.Sprintf("bench: wiring net rx channel: %v", err))
	}
	netBE.Notify = func(nc *hw.CPU) {
		if err := v.EvtchnSend(nc, drv, rxPortBE); err != nil {
			panic(fmt.Sprintf("bench: net rx notify: %v", err))
		}
	}
	feNet.ReplenishRx(c)

	// The driver domain steals frames addressed to the frontend.
	feID := feK.NetID()
	drvK.SetRxHook(func(hc *hw.CPU, data []byte) bool {
		if len(data) >= 1 && data[0] == feID {
			netBE.DeliverRx(hc, data)
			return true
		}
		return false
	})
}
