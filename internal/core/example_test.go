package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// Boot a Mercury system, run an application in native mode, attach the
// pre-cached VMM underneath it while it runs, do some work in virtual
// mode, and detach again: the application never notices (§4).
func ExampleMercury_SwitchSync() {
	machine := hw.NewMachine(hw.DefaultConfig())

	// core.New pre-caches the VMM (it stays inactive in memory) and
	// boots the kernel in native mode with Mercury's virtualization
	// objects installed.
	mc, err := core.New(core.Config{Machine: machine})
	if err != nil {
		log.Fatal(err)
	}
	k := mc.K
	boot := machine.BootCPU()
	fmt.Printf("booted: mode=%v, VMM active=%v\n", mc.Mode(), mc.VMM.Active)

	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		us := func(cyc hw.Cycles) float64 { return machine.Micros(cyc) }

		// Native-mode work: full speed, direct hardware access.
		base := p.Mmap(64, guest.ProtRead|guest.ProtWrite, true)
		t0 := p.CPU().Now()
		p.Touch(base, 64, true)
		fmt.Printf("native-mode touch of 64 pages: %5.1f us\n", us(p.CPU().Now()-t0))

		// Attach the VMM underneath the running application.
		t0 = p.CPU().Now()
		if err := mc.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("switch native -> virtual:       %5.1f us (engine: %.1f us)\n",
			us(p.CPU().Now()-t0), us(mc.Stats.LastAttachCyc.Load()))
		fmt.Printf("now: mode=%v, VMM active=%v, kernel object=%s\n",
			mc.Mode(), mc.VMM.Active, k.VO().Name())

		// Same memory, same process: now every sensitive operation is a
		// hypercall. The pre-switch contents survived.
		intact := true
		for i := 0; i < 64; i++ {
			va := base + hw.VirtAddr(i<<hw.PageShift)
			intact = intact && p.CPU().ReadWord(va) == uint32(va)
		}
		fmt.Printf("memory intact across the switch: %v\n", intact)
		b2 := p.Mmap(64, guest.ProtRead|guest.ProtWrite, true)
		t0 = p.CPU().Now()
		p.Touch(b2, 64, true)
		fmt.Printf("virtual-mode touch of 64 pages: %5.1f us\n", us(p.CPU().Now()-t0))

		// Detach: back to bare hardware.
		t0 = p.CPU().Now()
		if err := mc.SwitchSync(p.CPU(), core.ModeNative); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("switch virtual -> native:       %5.1f us (engine: %.1f us)\n",
			us(p.CPU().Now()-t0), us(mc.Stats.LastDetachCyc.Load()))
		fmt.Printf("now: mode=%v, VMM active=%v, kernel object=%s\n",
			mc.Mode(), mc.VMM.Active, k.VO().Name())

		p.Munmap(b2)
		p.Munmap(base)
	})
	k.Run(boot)
	fmt.Printf("done: %d attaches, %d detaches, %d frames selector-fixed\n",
		mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load(), mc.Stats.FixedFrames.Load())
	// Output:
	// booted: mode=native, VMM active=false
	// native-mode touch of 64 pages:   2.0 us
	// switch native -> virtual:         5.1 us (engine: 4.8 us)
	// now: mode=partial-virtual, VMM active=true, kernel object=virtual
	// memory intact across the switch: true
	// virtual-mode touch of 64 pages:   2.0 us
	// switch virtual -> native:         3.1 us (engine: 2.9 us)
	// now: mode=native, VMM active=false, kernel object=native
	// done: 1 attaches, 1 detaches, 0 frames selector-fixed
}

// Self-healing (§6.2): a sensor watches a kernel invariant; on an
// anomaly the OS self-virtualizes, the VMM repairs the tainted state
// from outside the kernel, and the machine returns to native mode. No
// second machine is needed and there is no steady-state overhead.
func ExampleMercury_SelfHeal() {
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
	fmt.Printf("fault injected: %v\n", mc.K.CheckRunqueue(nil))

	// The next sensor sweep triggers a healing episode.
	rep, err = mc.SelfHeal(c, sensors, core.RunqueueRepair())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass 2: sensor %q fired\n", rep.Sensor)
	fmt.Printf("healed=%v, VMM resident for %.0f ns between attach and detach\n",
		rep.Healed, rep.AttachedForUS*1000)
	fmt.Printf("back to mode=%v; runqueue integrity: %v\n",
		mc.Mode(), mc.K.CheckRunqueue(nil))
	// Output:
	// pass 1: sensors quiet (report=<nil>), mode=native
	// fault injected: guest: dead process 9999 (zombie) on run queue
	// pass 2: sensor "runqueue-integrity" fired
	// healed=true, VMM resident for 11 ns between attach and detach
	// back to mode=native; runqueue integrity: <nil>
}

// Live kernel update (§6.4): the system runs in native mode; to apply
// a kernel patch the VMM attaches, supervises the update and detaches.
// Unlike LUCOS, no hypervisor is resident before or after the window.
func ExampleMercury_LiveUpdate() {
	machine := hw.NewMachine(hw.DefaultConfig())
	mc, err := core.New(core.Config{Machine: machine})
	if err != nil {
		log.Fatal(err)
	}
	k := mc.K
	boot := machine.BootCPU()

	k.Spawn(boot, "service", guest.DefaultImage("service"), func(p *guest.Proc) {
		fmt.Printf("service running, mode=%v\n", mc.Mode())
		base := p.Mmap(16, guest.ProtRead|guest.ProtWrite, true)
		p.Touch(base, 16, true)

		// The patch wraps the page-fault handler with an accounting
		// prologue, standing in for a security fix to a kernel entry
		// point.
		var patchedFaults int
		old := k.IDT.Get(hw.VecPageFault)
		patch := core.KernelPatch{
			Name: "harden-fault-entry",
			Apply: func(kk *guest.Kernel) error {
				kk.IDT.Set(hw.VecPageFault, hw.Gate{Present: true, Target: hw.PL0,
					Handler: func(c *hw.CPU, f *hw.TrapFrame) {
						patchedFaults++
						old.Handler(c, f)
					}})
				return nil
			},
			Validate: func(kk *guest.Kernel) error {
				if !kk.IDT.Get(hw.VecPageFault).Present {
					return fmt.Errorf("fault gate missing after patch")
				}
				return nil
			},
		}
		rep, err := mc.LiveUpdate(p.CPU(), patch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("patch %q applied: VMM resident for %.1f us, back to mode=%v\n",
			rep.Patch, rep.AttachedForUS, mc.Mode())

		// The patched handler is live: demand-fault fresh pages.
		b2 := p.Mmap(8, guest.ProtRead|guest.ProtWrite, false)
		p.Touch(b2, 8, true)
		fmt.Printf("patched fault handler serviced %d faults after the update\n",
			patchedFaults)
		p.Munmap(b2)
		p.Munmap(base)
	})
	k.Run(boot)
	fmt.Printf("attaches=%d detaches=%d\n",
		mc.Stats.Attaches.Load(), mc.Stats.Detaches.Load())
	// Output:
	// service running, mode=native
	// patch "harden-fault-entry" applied: VMM resident for 0.4 us, back to mode=native
	// patched fault handler serviced 8 faults after the update
	// attaches=1 detaches=1
}

// HPC availability (§6.5): hardware monitors watch temperature and fan
// speed; when the failure predictor trips, the node self-virtualizes,
// its hosted environment live-migrates to a healthy node, and the now
// empty node detaches its VMM so it can be pulled for repair.
func ExampleMercury_EvacuateOnFailure() {
	// Node 1 runs Mercury with one hosted compute environment.
	node1 := hw.NewMachine(hw.Config{Name: "node1", MemBytes: 128 << 20, NumCPUs: 1})
	mc1, err := core.New(core.Config{Machine: node1})
	if err != nil {
		log.Fatal(err)
	}
	c1 := node1.BootCPU()
	if err := mc1.SwitchSync(c1, core.ModePartialVirtual); err != nil {
		log.Fatal(err)
	}
	job, err := mc1.VMM.HypDomctlCreateFromFrames(c1, mc1.Dom, "mpi-rank-0", 2048)
	if err != nil {
		log.Fatal(err)
	}
	lo, _ := job.Frames.Range()
	for i := 0; i < 800; i++ {
		node1.Mem.WriteWord((lo + hw.PFN(i)).Addr(), uint32(0x4A0B_0000+i))
	}
	fmt.Printf("[node1] hosting %q (800 pages of solver state)\n", job.Name)

	// Node 2 is the healthy spare, in partial-virtual mode.
	node2, err := xen.BootHost(hw.Config{Name: "node2", MemBytes: 128 << 20, NumCPUs: 1}, 4096)
	if err != nil {
		log.Fatal(err)
	}

	predictor := core.DefaultPredictor()
	rep, err := mc1.EvacuateOnFailure(c1, predictor, node2.V, node2.Dom0, migrate.LiveConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[node1] temp=%.0fC fan=%.0frpm: evacuated=%v\n",
		node1.Sensors.Read(hw.SensorCPUTempC), node1.Sensors.Read(hw.SensorFanRPM), rep != nil)

	// A fan starts dying; the temperature climbs past the threshold.
	node1.Sensors.Set(hw.SensorFanRPM, 1200)
	node1.Sensors.Set(hw.SensorCPUTempC, 91)
	var cfg migrate.LiveConfig
	cfg.Mutator = func(round int) { // the solver keeps computing
		for i := 0; i < 25; i++ {
			node1.Mem.WriteWord((lo+hw.PFN((round*17+i)%800)).Addr()+12, uint32(round))
		}
	}
	rep, err = mc1.EvacuateOnFailure(c1, predictor, node2.V, node2.Dom0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[node1] predictor: %s\n", rep.Predicted)
	for i, name := range rep.Evacuated {
		lr := rep.Migration[i]
		fmt.Printf("[node1->node2] %q: %d pages, %d rounds, downtime %.1f us\n",
			name, lr.TotalPages, len(lr.Rounds), lr.DowntimeUSec)
	}
	fmt.Printf("[node1] released=%v, mode=%v\n", rep.NodeReleased, mc1.Mode())

	// The job's state survived intact on node 2.
	for _, d := range node2.V.Domains {
		if d.Name == "mpi-rank-0-migrated" {
			lo2, _ := d.Frames.Range()
			verified := true
			for i := 0; i < 800; i++ {
				verified = verified && node2.M.Mem.ReadWord((lo2+hw.PFN(i)).Addr()) == uint32(0x4A0B_0000+i)
			}
			fmt.Printf("[node2] %q solver state verified: %v\n", d.Name, verified)
		}
	}
	// Output:
	// [node1] hosting "mpi-rank-0" (800 pages of solver state)
	// [node1] temp=52C fan=9800rpm: evacuated=false
	// [node1] predictor: cpu temperature 91 C exceeds 85 C
	// [node1->node2] "mpi-rank-0-migrated": 1017 pages, 10 rounds, downtime 154.8 us
	// [node1] released=true, mode=native
	// [node2] "mpi-rank-0-migrated" solver state verified: true
}
