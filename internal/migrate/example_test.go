package migrate_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migrate"
	"repro/internal/xen"
)

// Checkpoint and restart (§6.1): the pre-cached VMM is attached just
// long enough to snapshot a hosted environment; after a failure the
// snapshot rolls the environment back to its checkpointed state.
func ExampleCheckpoint() {
	machine := hw.NewMachine(hw.DefaultConfig())
	mc, err := core.New(core.Config{Machine: machine})
	if err != nil {
		log.Fatal(err)
	}
	c := machine.BootCPU()

	// Attach the VMM and host the environment to be protected.
	if err := mc.SwitchSync(c, core.ModePartialVirtual); err != nil {
		log.Fatal(err)
	}
	env, err := mc.VMM.HypDomctlCreateFromFrames(c, mc.Dom, "database", 1024)
	if err != nil {
		log.Fatal(err)
	}
	lo, _ := env.Frames.Range()
	for i := 0; i < 256; i++ {
		machine.Mem.WriteWord((lo + hw.PFN(i)).Addr(), uint32(7000+i))
	}

	// Periodic checkpoint, serialized as it would be to stable storage.
	img, err := migrate.Checkpoint(c, mc.VMM, mc.Dom, env)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := img.Bytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint of %q: %d pages, %d KB serialized\n",
		env.Name, len(img.Pages), len(blob)/1024)

	// A software failure scribbles over the environment.
	for i := 0; i < 256; i++ {
		machine.Mem.WriteWord((lo + hw.PFN(i)).Addr(), 0xDEAD)
	}

	// Recovery: decode the snapshot and roll the environment back.
	back, err := migrate.DecodeImage(blob)
	if err != nil {
		log.Fatal(err)
	}
	if err := migrate.Restore(c, mc.VMM, mc.Dom, env, back); err != nil {
		log.Fatal(err)
	}
	verified := true
	for i := 0; i < 256; i++ {
		verified = verified && machine.Mem.ReadWord((lo+hw.PFN(i)).Addr()) == uint32(7000+i)
	}
	fmt.Printf("restore verified: %v\n", verified)
	// Output:
	// checkpoint of "database": 256 pages, 1026 KB serialized
	// restore verified: true
}

// Online maintenance (§6.3): machine A self-virtualizes, live-migrates
// its hosted guest to machine B while the guest keeps dirtying memory,
// and detaches its VMM so it can be powered off. Each pre-copy round
// sends only what the previous one left dirty.
func ExampleLive() {
	machA := hw.NewMachine(hw.Config{Name: "machine-A", MemBytes: 128 << 20, NumCPUs: 1})
	mcA, err := core.New(core.Config{Machine: machA})
	if err != nil {
		log.Fatal(err)
	}
	cA := machA.BootCPU()

	// Machine B, the healthy spare, is already in partial-virtual mode
	// to accommodate the incoming environment.
	hostB, err := xen.BootHost(hw.Config{Name: "machine-B", MemBytes: 128 << 20, NumCPUs: 1}, 4096)
	if err != nil {
		log.Fatal(err)
	}

	// Machine A self-virtualizes so its workload becomes a migratable
	// domain with 512 live pages.
	if err := mcA.SwitchSync(cA, core.ModePartialVirtual); err != nil {
		log.Fatal(err)
	}
	domU, err := mcA.VMM.HypDomctlCreateFromFrames(cA, mcA.Dom, "workload", 2048)
	if err != nil {
		log.Fatal(err)
	}
	lo, _ := domU.Frames.Range()
	for i := 0; i < 512; i++ {
		machA.Mem.WriteWord((lo + hw.PFN(i)).Addr(), uint32(0xC0DE0000+i))
	}

	// The guest keeps running: it dirties 20 pages a round.
	last := make(map[int]uint32) // page -> the guest's last write at +8
	var cfg migrate.LiveConfig
	cfg.Mutator = func(round int) {
		for i := 0; i < 20; i++ {
			p := (round*31 + i) % 512
			machA.Mem.WriteWord((lo+hw.PFN(p)).Addr()+8, uint32(round))
			last[p] = uint32(round)
		}
	}
	moved, rep, err := migrate.Live(cA, mcA.VMM, mcA.Dom, domU, hostB.V, hostB.Dom0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-6s %s\n", "round", "pages", "decision")
	for _, r := range rep.Rounds {
		fmt.Printf("%-6d %-6d %s\n", r.Round, r.Pages, r.Decision)
	}
	fmt.Printf("stop reason: %s; %d pages, downtime %.1f us, total %.1f ms\n",
		rep.StopReason, rep.TotalPages, rep.DowntimeUSec, rep.TotalUSec/1000)
	loB, _ := moved.Frames.Range()
	verified := rep.Verified
	for i := 0; i < 512; i++ {
		va := (loB + hw.PFN(i)).Addr()
		verified = verified && hostB.M.Mem.ReadWord(va) == uint32(0xC0DE0000+i) &&
			hostB.M.Mem.ReadWord(va+8) == last[i]
	}
	fmt.Printf("[B] %q payload verified: %v\n", moved.Name, verified)

	// With no hosted guests left, machine A detaches its VMM.
	if err := mcA.SwitchSync(cA, core.ModeNative); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[A] mode=%v, safe to service\n", mcA.Mode())
	// Output:
	// round  pages  decision
	// 0      512    continue
	// 1      40     continue
	// 2      20     continue
	// 3      20     continue
	// 4      20     continue
	// 5      20     continue
	// 6      20     continue
	// 7      20     continue
	// 8      20     continue
	// 9      0      stop-and-copy
	// stop reason: max-rounds; 692 pages, downtime 154.8 us, total 23.8 ms
	// [B] "workload-migrated" payload verified: true
	// [A] mode=native, safe to service
}
