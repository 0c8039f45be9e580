package hw

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Config describes a machine to build. The defaults mirror the paper's
// testbed: two 3 GHz Xeons, with memory scaled down (the simulation's
// costs are per-operation, so a smaller physical memory only bounds how
// many frames workloads may touch, not their per-operation cost).
type Config struct {
	Name     string
	MemBytes uint64
	NumCPUs  int
	Costs    *CostModel
}

// DefaultConfig returns the standard uniprocessor machine.
func DefaultConfig() Config {
	return Config{
		Name:     "sc1420",
		MemBytes: 128 << 20,
		NumCPUs:  1,
	}
}

// Machine aggregates the simulated hardware: memory, CPUs, interrupt
// routing and devices.
type Machine struct {
	Name    string
	Hz      uint64
	Mem     *PhysMem
	CPUs    []*CPU
	IOAPIC  *IOAPIC
	Costs   *CostModel
	Disk    *Disk
	NIC     *NIC
	Serial  *Serial
	Sensors *SensorBank

	// Frames is the boot-time frame allocator. The boot path partitions
	// it between the OS and the pre-cached VMM.
	Frames *FrameAllocator

	// telemetry is the installed collector (nil = telemetry disabled).
	// Every instrumentation hook in the tree gates on one atomic load
	// of this pointer.
	telemetry atomic.Pointer[obs.Collector]

	sched sched
}

// SetTelemetry installs (or, with nil, removes) the machine's
// telemetry collector. Safe to call while the machine runs.
func (m *Machine) SetTelemetry(col *obs.Collector) { m.telemetry.Store(col) }

// Telemetry returns the installed collector, or nil. One atomic load:
// this is the whole cost of every disabled telemetry hook.
func (m *Machine) Telemetry() *obs.Collector { return m.telemetry.Load() }

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 128 << 20
	}
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.Costs == nil {
		cfg.Costs = DefaultCosts()
	}
	if cfg.NumCPUs > 1 {
		cfg.Costs = cfg.Costs.SMPScaled()
	}
	m := &Machine{
		Name:  cfg.Name,
		Hz:    DefaultHz,
		Mem:   NewPhysMem(cfg.MemBytes),
		Costs: cfg.Costs,
	}
	m.IOAPIC = NewIOAPIC(m)
	m.Frames = NewFrameAllocator(1, m.Mem.NumFrames()) // frame 0 reserved
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &CPU{
			ID:   i,
			M:    m,
			Clk:  NewClock(DefaultHz),
			TLB:  NewTLB(),
			CPL:  PL0,
			IF:   false,
			wake: sync.NewCond(&m.sched.mu),
		}
		c.LAPIC = &LAPIC{cpu: c}
		c.LAPIC.due.Store(never)
		c.yieldAt.Store(never)
		m.CPUs = append(m.CPUs, c)
	}
	m.Disk = NewDisk(m, IRQLineDisk)
	m.NIC = NewNIC(m, IRQLineNIC)
	m.Serial = NewSerial(m)
	m.Sensors = NewSensorBank()
	return m
}

// Interrupt lines on the IO-APIC.
const (
	IRQLineTimer = 0
	IRQLineDisk  = 1
	IRQLineNIC   = 2
)

// BootCPU returns CPU 0.
func (m *Machine) BootCPU() *CPU { return m.CPUs[0] }

// Micros converts cycles to microseconds at this machine's frequency.
func (m *Machine) Micros(n Cycles) float64 {
	return float64(n) / float64(m.Hz) * 1e6
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s(%d CPUs, %d MB)", m.Name, len(m.CPUs),
		uint64(m.Mem.NumFrames())*PageSize>>20)
}
