package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
)

// TestBuildAllSystems verifies every configuration boots and can run a
// trivial process to completion.
func TestBuildAllSystems(t *testing.T) {
	for _, key := range AllSystems {
		key := key
		t.Run(string(key), func(t *testing.T) {
			s, err := Build(key, Options{})
			if err != nil {
				t.Fatalf("Build(%s): %v", key, err)
			}
			ran := false
			s.Run("smoke", func(p *guest.Proc) {
				p.Work(10_000)
				ran = true
			})
			if !ran {
				t.Fatalf("%s: init process did not run", key)
			}
		})
	}
}

// TestSystemModes checks the Mercury configurations report the right
// execution mode.
func TestSystemModes(t *testing.T) {
	cases := []struct {
		key  SystemKey
		mode core.Mode
	}{
		{MN, core.ModeNative},
		{MV, core.ModePartialVirtual},
		{MU, core.ModePartialVirtual},
	}
	for _, tc := range cases {
		s, err := Build(tc.key, Options{})
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.key, err)
		}
		if got := s.Mercury.Mode(); got != tc.mode {
			t.Errorf("%s: mode = %v, want %v", tc.key, got, tc.mode)
		}
	}
}

// TestForkExecSmoke runs the process-management syscalls on every
// configuration.
func TestForkExecSmoke(t *testing.T) {
	for _, key := range AllSystems {
		key := key
		t.Run(string(key), func(t *testing.T) {
			s, err := Build(key, Options{})
			if err != nil {
				t.Fatalf("Build(%s): %v", key, err)
			}
			var childRan bool
			s.Run("init", func(p *guest.Proc) {
				p.Fork("child", func(cp *guest.Proc) {
					cp.Work(1000)
					childRan = true
					cp.Exit(7)
				})
				pid, code, ok := p.Wait()
				if !ok || code != 7 || pid == 0 {
					t.Errorf("%s: wait = (%d,%d,%v)", key, pid, code, ok)
				}
			})
			if !childRan {
				t.Fatalf("%s: child did not run", key)
			}
		})
	}
}

// TestFileIOSmoke exercises the filesystem through each configuration's
// block driver (native or split frontend).
func TestFileIOSmoke(t *testing.T) {
	for _, key := range []SystemKey{NL, X0, XU, MV, MU} {
		key := key
		t.Run(string(key), func(t *testing.T) {
			s, err := Build(key, Options{})
			if err != nil {
				t.Fatalf("Build(%s): %v", key, err)
			}
			s.Run("io", func(p *guest.Proc) {
				fd, err := p.Creat("/data")
				if err != nil {
					t.Errorf("creat: %v", err)
					return
				}
				p.Write(fd, 64<<10)
				p.Close(fd)
				p.K.FS.Sync(p.CPU())
				fd2, err := p.Open("/data")
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if got := p.Read(fd2, 64<<10); got != 64<<10 {
					t.Errorf("%s: read %d bytes, want %d", key, got, 64<<10)
				}
				p.Close(fd2)
			})
		})
	}
}

// TestNetworkSmoke pings the synthetic remote from each configuration.
func TestNetworkSmoke(t *testing.T) {
	for _, key := range []SystemKey{NL, MN, X0, MV, XU, MU} {
		key := key
		t.Run(string(key), func(t *testing.T) {
			s, err := Build(key, Options{})
			if err != nil {
				t.Fatalf("Build(%s): %v", key, err)
			}
			s.Run("ping", func(p *guest.Proc) {
				rtt := p.Ping(2, 56)
				if rtt == 0 {
					t.Errorf("%s: zero RTT", key)
				}
				us := s.Micros(rtt)
				if us < 50 || us > 5000 {
					t.Errorf("%s: implausible RTT %.1f us", key, us)
				}
			})
		})
	}
}

// TestFrontendReconnect exercises the §5.2 reconnection path: the
// frontend drivers are rewired to fresh backends (new rings, new event
// channels — what happens after a migration or a driver-domain restart)
// and I/O continues where it left off.
func TestFrontendReconnect(t *testing.T) {
	s, err := Build(XU, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("phase1", func(p *guest.Proc) {
		fd, err := p.Creat("/data")
		if err != nil {
			t.Errorf("creat: %v", err)
			return
		}
		p.Write(fd, 64<<10)
		p.Close(fd)
		p.Syscall(func(c *hw.CPU) { p.K.FS.Sync(c) })
	})

	// Reconnect: fresh rings and event channels, as after migration.
	boot := s.M.BootCPU()
	WireSplitDrivers(boot, s.VMM, s.Driver, s.VMM.DriverDomain(), s.K, s.Dom)

	s.Run("phase2", func(p *guest.Proc) {
		// The page cache survived; drop it so reads go through the NEW
		// backend path to the disk.
		p.Syscall(func(c *hw.CPU) {
			ino, err := p.K.FS.Open(c, "/data")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for _, pfn := range p.K.FS.DropCache(ino.Ino) {
				p.K.ReleasePage(pfn)
			}
		})
		fd, err := p.Open("/data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if got := p.Read(fd, 64<<10); got != 64<<10 {
			t.Errorf("read %d bytes through reconnected frontend", got)
		}
		p.Close(fd)
		// Network too.
		if rtt := p.Ping(2, 56); rtt == 0 {
			t.Error("ping through reconnected frontend failed")
		}
	})
}

// TestExitReusesTablesOnlyAfterSwitch: under a VMM an exiting process's
// directory stays typed while its CPU's CR3 still holds it, so its
// table frames may go back to the allocator only once that CPU loads
// another root. On two CPUs, one process maps and touches fresh pages
// while the other forks and reaps children whose exits free their
// trees; a frame reused too early is refused as a writable mapping and
// crashes the mapper.
func TestExitReusesTablesOnlyAfterSwitch(t *testing.T) {
	s, err := Build(MV, Options{NCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("exit-reuse", func(p *guest.Proc) {
		p.Fork("mapper", func(cp *guest.Proc) {
			for i := 0; i < 400; i++ {
				b := cp.Mmap(4, guest.ProtRead|guest.ProtWrite, false)
				cp.Touch(b, 4, true)
				cp.Munmap(b)
			}
			cp.Exit(0)
		})
		for i := 0; i < 200; i++ {
			p.Fork("child", func(cp *guest.Proc) {
				b := cp.Mmap(2, guest.ProtRead|guest.ProtWrite, false)
				cp.Touch(b, 2, true)
				cp.Exit(0)
			})
			p.Wait()
		}
		p.Wait()
	})
}
