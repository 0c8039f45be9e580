package core

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/obs"
)

// Self-healing (§6.2): sensors watch for anomalies in the running OS;
// when one fires, the system self-virtualizes, the (now fully
// privileged) VMM repairs the tainted state from outside the kernel,
// and the VMM detaches again — no second machine, no steady-state
// overhead.

// Sensor inspects the kernel from CPU c and reports an anomaly, or nil.
// Repair, when set, is the sensor's own fix; a tripped sensor without
// one falls back to the repair passed to SelfHeal.
type Sensor struct {
	Name   string
	Check  func(c *hw.CPU, k *guest.Kernel) error
	Repair Repair
}

// Repair fixes the anomaly a sensor reported, running with the VMM
// attached (full control over the OS).
type Repair func(c *hw.CPU, mc *Mercury) error

// SensorOutcome is one sensor's result within a healing episode.
type SensorOutcome struct {
	Sensor  string
	Anomaly string
	Healed  bool
	Err     string // repair error or persistence message, "" when healed
}

// HealReport describes one healing episode. Sensor/Anomaly name the
// first tripped sensor and Healed is the conjunction over all tripped
// sensors; Outcomes carries the per-sensor detail.
type HealReport struct {
	Sensor        string
	Anomaly       string
	Healed        bool
	AttachedForUS float64
	Outcomes      []SensorOutcome
}

// SelfHeal evaluates every sensor; if any report anomalies it attaches
// the VMM once, repairs each tripped sensor inside that single attach
// window, verifies each is quiet again, and detaches. Returns nil, nil
// when no sensor fired, and the first repair failure otherwise.
func (mc *Mercury) SelfHeal(c *hw.CPU, sensors []Sensor, fallback Repair) (*HealReport, error) {
	var tripped []int
	var anomalies []error
	for i := range sensors {
		if err := sensors[i].Check(c, mc.K); err != nil {
			tripped = append(tripped, i)
			anomalies = append(anomalies, err)
		}
	}
	if len(tripped) == 0 {
		return nil, nil
	}
	rep := &HealReport{
		Sensor:  sensors[tripped[0]].Name,
		Anomaly: anomalies[0].Error(),
		Healed:  true,
	}
	sp := obs.Begin(mc.telCol(), c.ID, c.Now(), "core/self-heal")
	defer func() {
		healed := uint64(0)
		if rep.Healed {
			healed = 1
		}
		sp.EndArg(c.Now(), healed)
	}()
	if h := mc.tel(); h != nil {
		h.healings.Inc()
	}

	wasNative := mc.Mode() == ModeNative
	if wasNative {
		if err := mc.SwitchSync(c, ModePartialVirtual); err != nil {
			rep.Healed = false
			return rep, fmt.Errorf("core: attaching for healing: %w", err)
		}
	}
	attachedAt := c.Now()
	var firstErr error
	for n, i := range tripped {
		s := &sensors[i]
		out := SensorOutcome{Sensor: s.Name, Anomaly: anomalies[n].Error()}
		repair := s.Repair
		if repair == nil {
			repair = fallback
		}
		err := repair(c, mc)
		if err == nil {
			if perr := s.Check(c, mc.K); perr != nil {
				err = fmt.Errorf("anomaly persists after repair: %w", perr)
			}
		}
		if err != nil {
			out.Err = err.Error()
			rep.Healed = false
			if firstErr == nil {
				firstErr = err
			}
		} else {
			out.Healed = true
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	rep.AttachedForUS = float64(c.Now()-attachedAt) / float64(mc.M.Hz) * 1e6
	if wasNative {
		if err := mc.SwitchSync(c, ModeNative); err != nil {
			return rep, fmt.Errorf("core: detaching after healing: %w", err)
		}
	}
	return rep, firstErr
}

// RunqueueSensor detects corrupted scheduler state (dead processes on
// the run queue) — the class of "tainted kernel state" a healing VMM
// repairs from outside.
func RunqueueSensor() Sensor {
	return Sensor{
		Name:  "runqueue-integrity",
		Check: func(c *hw.CPU, k *guest.Kernel) error { return k.CheckRunqueue(c) },
	}
}

// RunqueueRepair drops invalid entries from the scheduler's run queue.
// Removing nothing is only a failure if the queue is still corrupt —
// an earlier sensor's repair may already have fixed it, and a repair
// that leaves a healthy queue healthy has succeeded.
func RunqueueRepair() Repair {
	return func(c *hw.CPU, mc *Mercury) error {
		if n := mc.K.RepairRunqueue(c); n > 0 {
			return nil
		}
		if err := mc.K.CheckRunqueue(c); err != nil {
			return fmt.Errorf("core: nothing to repair but queue still corrupt: %w", err)
		}
		return nil
	}
}
