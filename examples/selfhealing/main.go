// Self-healing (§6.2): sensors watch kernel invariants; on an anomaly
// the OS self-virtualizes, the VMM repairs the tainted state from
// outside the kernel, and the machine returns to native mode. Unlike
// backdoor-based remote healing, no second machine is needed, and there
// is no steady-state overhead.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
)

func main() {
	machine := hw.NewMachine(hw.DefaultConfig())
	mc, err := core.New(core.Config{Machine: machine})
	if err != nil {
		log.Fatal(err)
	}
	c := machine.BootCPU()
	sensors := []core.Sensor{core.RunqueueSensor()}

	// Healthy pass: nothing to do, zero cost.
	rep, err := mc.SelfHeal(c, sensors, core.RunqueueRepair())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 1: sensors quiet (report=%v), mode=%v\n", rep, mc.Mode())

	// A wild fault corrupts scheduler state.
	mc.K.InjectRunqueueCorruption(nil)
	if err := mc.K.CheckRunqueue(nil); err != nil {
		fmt.Printf("fault injected: %v\n", err)
	}

	// The next sensor sweep triggers a healing episode.
	rep, err = mc.SelfHeal(c, sensors, core.RunqueueRepair())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 2: sensor %q fired (%s)\n", rep.Sensor, rep.Anomaly)
	fmt.Printf("        healed=%v, VMM resident for %.1f us\n",
		rep.Healed, rep.AttachedForUS)
	fmt.Printf("back to mode=%v; runqueue integrity: %v\n",
		mc.Mode(), mc.K.CheckRunqueue(nil))
}
