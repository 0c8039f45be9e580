package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
)

// SwitchResult reports mode-switch timings (§7.4): the paper measures
// ~0.22 ms for native->virtual (dominated by the frame-info recompute)
// and ~0.06 ms for virtual->native.
type SwitchResult struct {
	Policy          core.TrackingPolicy
	ToVirtualMicros float64
	ToNativeMicros  float64
	Samples         int
	Deferred        uint64 // switches postponed by the refcount gate
	FixedFrames     uint64 // saved frames patched by the selector stub
}

// switchLoadProcs is the number of resident processes alive across each
// measured switch (their page tables are what the recompute scans).
const switchLoadProcs = 14

// ModeSwitchBench measures attach/detach times under a realistic
// process load, RDTSC-style: the cycle counter is read at the beginning
// and end of each switch inside the engine itself. A telemetry collector
// in opt.Collector gets a per-phase span decomposition of each measured
// switch. samples must be at least 1.
func ModeSwitchBench(samples int, policy core.TrackingPolicy, opt Options) (SwitchResult, error) {
	if samples < 1 {
		return SwitchResult{}, fmt.Errorf("bench: %d mode-switch samples, want at least 1", samples)
	}
	opt.Policy = policy
	s, err := Build(MN, opt)
	if err != nil {
		return SwitchResult{}, fmt.Errorf("bench: %w", err)
	}
	mc := s.Mercury
	res := SwitchResult{Policy: policy, Samples: samples}

	var sumAttach, sumDetach hw.Cycles
	var switchErr error
	s.Run("switch-bench", func(p *guest.Proc) {
		// Background load: processes with populated address spaces,
		// parked on pipes for the duration. Each faults in the full
		// image plus a private heap, as a long-running daemon would have.
		release := Residents(p, switchLoadProcs, func(lp *guest.Proc) {
			img := guest.DefaultImage("load")
			lp.Touch(guest.TextBase, img.TextPages, false)
			base := lp.Mmap(128, guest.ProtRead|guest.ProtWrite, true)
			lp.Touch(base, 128, true)
		})

		for i := 0; i < samples; i++ {
			if switchErr = mc.SwitchSync(p.CPU(), core.ModePartialVirtual); switchErr != nil {
				break
			}
			sumAttach += mc.Stats.LastAttachCyc.Load()
			if switchErr = mc.SwitchSync(p.CPU(), core.ModeNative); switchErr != nil {
				break
			}
			sumDetach += mc.Stats.LastDetachCyc.Load()
		}
		release()
	})
	if switchErr != nil {
		return SwitchResult{}, fmt.Errorf("bench: mode switch: %w", switchErr)
	}

	res.ToVirtualMicros = s.Micros(sumAttach / hw.Cycles(samples))
	res.ToNativeMicros = s.Micros(sumDetach / hw.Cycles(samples))
	res.Deferred = mc.Stats.Deferred.Load()
	res.FixedFrames = mc.Stats.FixedFrames.Load()
	return res, nil
}

// AblationResult compares the two frame-tracking policies of §5.1.2:
// active tracking costs 2–3 % in native mode but shortens the attach;
// recompute-on-switch is free natively but pays at switch time.
type AblationResult struct {
	RecomputeNativeUS float64 // mmap-heavy native loop, recompute policy
	ActiveNativeUS    float64 // same loop, active-tracking policy
	OverheadPct       float64
	RecomputeAttachUS float64
	ActiveAttachUS    float64
}

// TrackingAblation regenerates the §5.1.2 comparison.
func TrackingAblation() (AblationResult, error) {
	var res AblationResult

	nativeLoop := func(policy core.TrackingPolicy) (float64, error) {
		s, err := Build(MN, Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		var per hw.Cycles
		s.Run("pt-loop", func(p *guest.Proc) {
			start := p.CPU().Now()
			for i := 0; i < 16; i++ {
				base := p.Mmap(256, guest.ProtRead|guest.ProtWrite, true)
				p.Touch(base, 256, true)
				p.Munmap(base)
			}
			per = p.CPU().Now() - start
		})
		return s.Micros(per), nil
	}
	var err error
	if res.RecomputeNativeUS, err = nativeLoop(core.TrackRecompute); err != nil {
		return res, err
	}
	if res.ActiveNativeUS, err = nativeLoop(core.TrackActive); err != nil {
		return res, err
	}
	res.OverheadPct = (res.ActiveNativeUS - res.RecomputeNativeUS) /
		res.RecomputeNativeUS * 100

	rec, err := ModeSwitchBench(5, core.TrackRecompute, Options{})
	if err != nil {
		return res, err
	}
	act, err := ModeSwitchBench(5, core.TrackActive, Options{})
	if err != nil {
		return res, err
	}
	res.RecomputeAttachUS = rec.ToVirtualMicros
	res.ActiveAttachUS = act.ToVirtualMicros
	return res, nil
}
