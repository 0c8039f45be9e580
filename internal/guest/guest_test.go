package guest

import (
	"sync"
	"testing"

	"repro/internal/hw"
)

// nativeKernel boots a plain native kernel on a fresh machine.
func nativeKernel(t *testing.T, ncpu int) *Kernel {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: ncpu})
	k, err := Boot(m, Config{Name: "test", Frames: m.Frames})
	if err != nil {
		t.Fatal(err)
	}
	k.Blk = &NativeBlock{K: k, Disk: m.Disk}
	k.Net = &NativeNet{K: k, NIC: m.NIC}
	k.SetNetID(1)
	return k
}

// run spawns an init process and drives the scheduler to completion.
func run(t *testing.T, k *Kernel, body Body) {
	t.Helper()
	boot := k.M.BootCPU()
	k.Spawn(boot, "init", DefaultImage("init"), body)
	k.Run(boot)
}

func TestProcessLifecycle(t *testing.T) {
	k := nativeKernel(t, 1)
	order := []string{}
	run(t, k, func(p *Proc) {
		order = append(order, "parent-start")
		child := p.Fork("child", func(cp *Proc) {
			order = append(order, "child")
			cp.Exit(42)
		})
		if child.Pid == p.Pid {
			t.Error("child shares parent pid")
		}
		pid, code, ok := p.Wait()
		order = append(order, "reaped")
		if !ok || pid != child.Pid || code != 42 {
			t.Errorf("wait = (%v,%v,%v)", pid, code, ok)
		}
	})
	if len(order) != 3 || order[2] != "reaped" {
		t.Fatalf("order = %v", order)
	}
}

func TestWaitWithNoChildren(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		if _, _, ok := p.Wait(); ok {
			t.Error("wait with no children succeeded")
		}
	})
}

func TestForkCopyOnWrite(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		base := p.Mmap(4, ProtRead|ProtWrite, true)
		c := p.CPU()
		c.WriteWord(base, 111)

		childSaw := make(chan uint32, 1)
		p.Fork("child", func(cp *Proc) {
			cc := cp.CPU()
			childSaw <- cc.ReadWord(base)
			// Child writes break COW privately.
			cc.WriteWord(base, 222)
			if got := cc.ReadWord(base); got != 222 {
				t.Errorf("child readback = %d", got)
			}
			cp.Exit(0)
		})
		p.Wait()
		if got := <-childSaw; got != 111 {
			t.Errorf("child saw %d before write", got)
		}
		// Parent unaffected by the child's write.
		if got := p.CPU().ReadWord(base); got != 111 {
			t.Errorf("parent sees %d after child wrote", got)
		}
	})
}

func TestForkSharesUntilWrite(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		base := p.Mmap(1, ProtRead|ProtWrite, true)
		p.CPU().WriteWord(base, 9)
		pte, _ := p.AS.PT.Lookup(base)
		frame := pte.Frame()
		if k.pageRefCount(frame) != 1 {
			t.Errorf("pre-fork refcount = %d", k.pageRefCount(frame))
		}
		p.Fork("child", func(cp *Proc) {
			// Read-only access keeps sharing.
			_ = cp.CPU().ReadWord(base)
			if k.pageRefCount(frame) != 2 {
				t.Errorf("shared refcount = %d", k.pageRefCount(frame))
			}
			cp.Exit(0)
		})
		p.Wait()
		if k.pageRefCount(frame) != 1 {
			t.Errorf("post-reap refcount = %d", k.pageRefCount(frame))
		}
	})
}

func TestExecReplacesAddressSpace(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		p.Fork("execer", func(cp *Proc) {
			oldRoot := cp.AS.PT.Root
			base := cp.Mmap(2, ProtRead|ProtWrite, true)
			_ = base
			cp.Exec(Image{Name: "other", TextPages: 10, DataPages: 5, StackPages: 2})
			if cp.AS.PT.Root == oldRoot {
				t.Error("exec kept the old root")
			}
			if cp.AS.findVMA(base) != nil {
				t.Error("old mmap survived exec")
			}
			cp.Exit(0)
		})
		p.Wait()
	})
}

func TestMemoryReclaimedAfterExit(t *testing.T) {
	k := nativeKernel(t, 1)
	var before int
	run(t, k, func(p *Proc) {
		before = k.Frames.InUse()
		p.Fork("hog", func(cp *Proc) {
			base := cp.Mmap(64, ProtRead|ProtWrite, true)
			cp.Touch(base, 64, true)
			cp.Exit(0)
		})
		p.Wait()
		// Shared text pages stay cached; everything private returns.
		after := k.Frames.InUse()
		if after > before+4 { // tolerance for cache growth
			t.Errorf("leak: %d frames before, %d after", before, after)
		}
	})
}

func TestDemandPagingFaultCounts(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		start := k.Stats.PageFaults.Load()
		base := p.Mmap(8, ProtRead|ProtWrite, false) // lazy
		p.Touch(base, 8, true)
		faults := k.Stats.PageFaults.Load() - start
		if faults != 8 {
			t.Errorf("faults = %d, want 8", faults)
		}
		// Second touch: resident, no faults.
		start = k.Stats.PageFaults.Load()
		p.Touch(base, 8, true)
		if got := k.Stats.PageFaults.Load() - start; got != 0 {
			t.Errorf("re-touch faulted %d times", got)
		}
	})
}

func TestMprotectAndSegv(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		base := p.Mmap(1, ProtRead|ProtWrite, true)
		p.Mprotect(base, ProtRead)
		caught := 0
		p.SegvHandler = func(sp *Proc, f *hw.TrapFrame) bool {
			caught++
			f.Skip = true
			return true
		}
		p.Touch(base, 1, true) // write to RO: signal, skipped
		if caught != 1 {
			t.Errorf("segv handler ran %d times", caught)
		}
		p.Mprotect(base, ProtRead|ProtWrite)
		p.SegvHandler = nil
		p.Touch(base, 1, true) // now fine
	})
}

func TestPipesBlockAndWake(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		pipe := k.NewPipe()
		got := make([]int, 0, 2)
		p.Fork("reader", func(rp *Proc) {
			rp.PipeRead(pipe, 10)
			got = append(got, 1)
			rp.Exit(0)
		})
		p.Yield() // reader blocks first
		got = append(got, 0)
		p.PipeWrite(pipe, 10)
		p.Wait()
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("order = %v", got)
		}
	})
}

func TestTimersAndSleep(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		c := p.CPU()
		start := c.Now()
		delay := k.M.Hz / 20 // 50 ms
		p.Sleep(delay)
		elapsed := p.CPU().Now() - start
		if elapsed < delay {
			t.Errorf("slept %d cycles, want >= %d", elapsed, delay)
		}
		// Resolution is the 10 ms tick.
		if elapsed > delay+k.M.Hz/50 {
			t.Errorf("overslept: %d cycles", elapsed)
		}
	})
}

func TestPreemptionByTick(t *testing.T) {
	k := nativeKernel(t, 1)
	var slices [2]int
	run(t, k, func(p *Proc) {
		for i := 0; i < 2; i++ {
			i := i
			p.Fork("spinner", func(sp *Proc) {
				// Two CPU hogs must interleave via tick preemption.
				for j := 0; j < 20; j++ {
					sp.Work(hw.Cycles(k.M.Hz / 100)) // 10 ms each
					slices[i]++
				}
				sp.Exit(0)
			})
		}
		p.Wait()
		p.Wait()
	})
	if slices[0] == 0 || slices[1] == 0 {
		t.Fatalf("a spinner starved: %v", slices)
	}
}

func TestSchedulerSMPRunsBothCPUs(t *testing.T) {
	k := nativeKernel(t, 2)
	boot := k.M.BootCPU()
	var mu sync.Mutex
	seen := make(map[int]bool)
	k.Spawn(boot, "init", DefaultImage("init"), func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Fork("w", func(wp *Proc) {
				// Yield repeatedly so both schedulers get many chances
				// to pick work up.
				for j := 0; j < 200; j++ {
					wp.Work(100_000)
					mu.Lock()
					seen[wp.CPU().ID] = true
					mu.Unlock()
					wp.Yield()
				}
				wp.Exit(0)
			})
		}
		for i := 0; i < 4; i++ {
			p.Wait()
		}
	})
	k.M.Run(k.Run)
	if len(seen) < 2 {
		t.Fatalf("work ran on %d CPUs: %v", len(seen), seen)
	}
}

// TestEnqueueWakesHaltedCPU: making a process runnable while the other
// CPU idles posts it a reschedule IPI, which wakes it at the enqueuer's
// clock to run the process — not at some later tick.
func TestEnqueueWakesHaltedCPU(t *testing.T) {
	k := nativeKernel(t, 2)
	ipis := make([]int, 2)
	resched := k.IDT.Get(hw.VecReschedIPI)
	k.IDT.Set(hw.VecReschedIPI, hw.Gate{Present: true, Target: resched.Target,
		Handler: func(c *hw.CPU, f *hw.TrapFrame) {
			ipis[c.ID]++
			resched.Handler(c, f)
		}})
	var forkedAt, startedAt hw.Cycles
	parentCPU, childCPU := -1, -1
	k.Spawn(k.M.BootCPU(), "init", DefaultImage("init"), func(p *Proc) {
		p.Work(1_000_000) // the other CPU halts with nothing to run
		parentCPU, forkedAt = p.CPU().ID, p.CPU().Now()
		p.Fork("child", func(cp *Proc) {
			childCPU, startedAt = cp.CPU().ID, cp.CPU().Now()
		})
		p.Work(5_000_000) // keep this CPU busy well past the child's start
		p.Wait()
	})
	k.M.Run(k.Run)
	idle := 1 - parentCPU
	if childCPU != idle || ipis[idle] == 0 {
		t.Fatalf("parent on cpu%d, child on cpu%d after %d reschedule IPIs to cpu%d",
			parentCPU, childCPU, ipis[idle], idle)
	}
	if startedAt-forkedAt > 200_000 {
		t.Fatalf("child started %d cycles after the fork; the kick should wake cpu%d at once",
			startedAt-forkedAt, idle)
	}
}

func TestFSCreateWriteReadUnlink(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, err := p.Creat("/f")
		if err != nil {
			t.Fatal(err)
		}
		p.Write(fd, 10_000)
		p.Close(fd)

		if n, err := p.Stat("/f"); err != nil || n != 10_000 {
			t.Errorf("stat = (%d,%v)", n, err)
		}
		fd2, err := p.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Read(fd2, 20_000); got != 10_000 {
			t.Errorf("read %d bytes", got)
		}
		p.Close(fd2)
		if err := p.Unlink("/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open("/f"); err == nil {
			t.Error("unlinked file still opens")
		}
	})
}

func TestFSWritebackHitsDisk(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/big")
		p.Write(fd, 256<<10) // 64 pages
		p.Close(fd)
		p.Syscall(func(c *hw.CPU) { k.FS.Sync(c) })
		if k.M.Disk.Stats.BytesWritten == 0 {
			t.Error("sync wrote nothing to disk")
		}
	})
}

func TestFSSurvivesCacheDropViaDisk(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/persist")
		p.Write(fd, 3*hw.PageSize)
		p.Close(fd)
		p.Syscall(func(c *hw.CPU) {
			k.FS.Sync(c)
			// Drop the cache: reads must come back from the disk.
			ino, err := k.FS.Open(c, "/persist")
			if err != nil {
				t.Error(err)
				return
			}
			for _, pg := range k.FS.DropCache(ino.Ino) {
				k.unrefPage(pg)
			}
			missesBefore := k.FS.Stats.CacheMisses
			k.FS.ReadAt(c, ino.Ino, 0, 3*hw.PageSize)
			if k.FS.Stats.CacheMisses == missesBefore {
				t.Error("dropped cache not refilled from disk")
			}
		})
		if k.M.Disk.Stats.BytesRead == 0 {
			t.Error("no disk reads after cache drop")
		}
	})
}

func TestDirectories(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		p.Syscall(func(c *hw.CPU) {
			if _, err := k.FS.Mkdir(c, "/d"); err != nil {
				t.Error(err)
			}
			if _, err := k.FS.Mkdir(c, "/d/e"); err != nil {
				t.Error(err)
			}
			if _, err := k.FS.Create(c, "/d/e/f"); err != nil {
				t.Error(err)
			}
			if _, err := k.FS.Create(c, "/missing/f"); err == nil {
				t.Error("create under missing dir succeeded")
			}
		})
		if _, err := p.Open("/d/e/f"); err != nil {
			t.Error(err)
		}
	})
}

func TestNetEchoThroughReflector(t *testing.T) {
	k := nativeKernel(t, 1)
	k.M.NIC.Reflector = EchoReflector(1, 0)
	run(t, k, func(p *Proc) {
		rtt := p.Ping(2, 64)
		if rtt == 0 {
			t.Error("zero RTT")
		}
		fr := Frame{Dst: 2, Proto: ProtoData, Payload: 100}
		p.SendFrame(fr) // sunk by the reflector
	})
	if k.M.NIC.Stats.TxPackets.Load() != 2 {
		t.Fatalf("tx packets = %d", k.M.NIC.Stats.TxPackets.Load())
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	fr := Frame{Dst: 3, Src: 1, Proto: ProtoAck, Payload: 9, Data: []byte("ping-pong")}
	got, err := ParseFrame(fr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != 3 || got.Src != 1 || got.Proto != ProtoAck || got.Payload != 9 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := ParseFrame([]byte{1}); err == nil {
		t.Fatal("runt frame parsed")
	}
}

func TestPrintkGoesToSerialNatively(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		p.Printk("hello console")
		p.Printk("second line")
	})
	lines := k.M.Serial.Lines()
	if len(lines) != 2 || lines[0] != "hello console" || lines[1] != "second line" {
		t.Fatalf("serial lines = %q", lines)
	}
}

func TestSerialPortIsPrivileged(t *testing.T) {
	k := nativeKernel(t, 1)
	c := k.M.BootCPU()
	c.SetMode(hw.PL1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("deprivileged port write did not fault")
		}
		c.SetMode(hw.PL0)
	}()
	k.M.Serial.WritePort(c, 'x') // no #GP handler for PL1 here: panics
}
