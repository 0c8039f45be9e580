package mc

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hw"
)

// Conformance: the production engine's observed step stream, projected
// into reduced-machine actions, must be a valid execution of the model
// (every projected action enabled in its predecessor state, no
// violation). This is the link that makes a model-checker verdict a
// statement about switch.go rather than about a transcription of it:
// the step vocabulary is shared (core.SwitchStep), the decision
// functions are shared (core.CommitGateOpen, core.DeferVerdict), and
// this test pins the *sequencing* to agree too.

// stepRec is one observed production protocol step.
type stepRec struct {
	cpu  int
	step core.SwitchStep
}

// recorder collects the production step stream; APs emit from their own
// goroutines, hence the mutex.
type recorder struct {
	mu    sync.Mutex
	steps []stepRec
}

func (r *recorder) OnStep(cpu int, step core.SwitchStep, _ core.Mode) {
	r.mu.Lock()
	r.steps = append(r.steps, stepRec{cpu, step})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []stepRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stepRec(nil), r.steps...)
}

// translate projects the production step stream into model actions.
// The two sides draw their atomicity lines slightly differently, and
// the projection encodes exactly those differences:
//   - the model's raise-switch has no production step (SwitchSync posts
//     the interrupt), so one is inserted before a gate-check that was
//     not reached via the retry timer;
//   - the production gather step marks the *start* of waiting, the
//     model's rendezvous-gather its completion, so the projection holds
//     it until the recheck proves every AP parked;
//   - the production commit is one step, the model splits the torn
//     window into commit-begin/commit-end;
//   - the production release step precedes the AP resumes it unblocks,
//     the model's rendezvous-release (ActFinish) requires them, so the
//     projection holds it until the last resume;
//   - defer-arm and starve are folded into the model's gate-check
//     (deferOrStarve runs inside it), so they project to nothing.
func translate(t *testing.T, steps []stepRec, cpus int) []Action {
	t.Helper()
	var out []Action
	gatherPending := false
	finishPending := false
	resumes := 0
	timerFired := false
	for _, s := range steps {
		switch s.step {
		case core.StepGateCheck:
			if !timerFired {
				out = append(out, Action{Kind: ActRaise})
			}
			timerFired = false
			out = append(out, Action{Kind: ActGateCheck})
		case core.StepRendezvousGather:
			// Uniprocessor: the production gather is a no-op and the
			// model goes straight to the recheck.
			gatherPending = cpus > 1
		case core.StepAPPark:
			out = append(out, Action{Kind: ActAPPark, Who: uint8(s.cpu)})
		case core.StepGateRecheck:
			if gatherPending {
				out = append(out, Action{Kind: ActGatherComplete})
				gatherPending = false
			}
			out = append(out, Action{Kind: ActGateRecheck})
		case core.StepCommit:
			out = append(out,
				Action{Kind: ActCommitBegin}, Action{Kind: ActCommitEnd})
		case core.StepRendezvousRelease:
			finishPending = true
			resumes = 0
			if cpus == 1 {
				out = append(out, Action{Kind: ActFinish})
				finishPending = false
			}
		case core.StepAPResume:
			out = append(out, Action{Kind: ActAPResume, Who: uint8(s.cpu)})
			resumes++
			if finishPending && resumes == cpus-1 {
				out = append(out, Action{Kind: ActFinish})
				finishPending = false
			}
		case core.StepRetryFire:
			timerFired = true
			out = append(out, Action{Kind: ActTimerFire})
		case core.StepDeferArm, core.StepStarve:
			// Folded into the model's gate-check.
		default:
			t.Fatalf("unexpected production step %v", s.step)
		}
	}
	if gatherPending || finishPending {
		t.Fatal("truncated step stream: rendezvous left open")
	}
	return out
}

// cpProjection filters the stream down to the control processor's steps.
func cpProjection(steps []stepRec) []core.SwitchStep {
	var out []core.SwitchStep
	for _, s := range steps {
		if s.cpu == 0 {
			out = append(out, s.step)
		}
	}
	return out
}

// TestConformanceCleanSwitchSMP runs a real attach/detach cycle on a
// two-CPU production system and replays the observed interleaving
// through the reduced machine.
func TestConformanceCleanSwitchSMP(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: 2})
	sys, err := core.New(core.Config{Machine: m, Policy: core.TrackRecompute})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	sys.SetStepObserver(rec)

	k := sys.K
	boot := m.BootCPU()
	k.Spawn(boot, "app", guest.DefaultImage("app"), func(p *guest.Proc) {
		if err := sys.SwitchSync(p.CPU(), core.ModePartialVirtual); err != nil {
			panic(err)
		}
		if err := sys.SwitchSync(p.CPU(), core.ModeNative); err != nil {
			panic(err)
		}
	})
	m.Run(k.Run)

	steps := rec.snapshot()
	// The CP's projection is the canonical protocol order, twice.
	wantCP := []core.SwitchStep{
		core.StepGateCheck, core.StepRendezvousGather, core.StepGateRecheck,
		core.StepCommit, core.StepRendezvousRelease,
		core.StepGateCheck, core.StepRendezvousGather, core.StepGateRecheck,
		core.StepCommit, core.StepRendezvousRelease,
	}
	gotCP := cpProjection(steps)
	if len(gotCP) != len(wantCP) {
		t.Fatalf("CP took %d steps, want %d: %v", len(gotCP), len(wantCP), gotCP)
	}
	for i := range wantCP {
		if gotCP[i] != wantCP[i] {
			t.Fatalf("CP step %d = %v, want %v", i, gotCP[i], wantCP[i])
		}
	}

	trace := translate(t, steps, 2)
	cfg := Config{CPUs: 2, Workers: 0, Switches: 2, MaxDeferrals: 2, Journal: true}
	vio, err := Replay(cfg, trace)
	if err != nil {
		t.Fatalf("production interleaving rejected by the model: %v", err)
	}
	if vio != VioNone {
		t.Fatalf("production interleaving violates the model: %v", vio)
	}
}

// TestConformanceStarvationUniprocessor holds the VO refcount through a
// switch attempt (the chaos vo-stuck-op fault) and replays the
// defer/retry/starve path through the model, with the held reference
// projected as a worker that entered and never exited.
func TestConformanceStarvationUniprocessor(t *testing.T) {
	m := hw.NewMachine(hw.Config{MemBytes: 64 << 20, NumCPUs: 1})
	sys, err := core.New(core.Config{
		Machine: m, Policy: core.TrackRecompute, MaxDeferrals: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	sys.SetStepObserver(rec)
	c := m.BootCPU()

	h, ok := sys.K.VO().(interface {
		Hold()
		Unhold()
	})
	if !ok {
		t.Fatalf("VO %q has no refcount hold", sys.K.VO().Name())
	}
	h.Hold()
	serr := sys.SwitchSync(c, core.ModePartialVirtual)
	h.Unhold()
	if serr == nil || !strings.Contains(serr.Error(), "starved") {
		t.Fatalf("switch under a held refcount: %v", serr)
	}

	steps := rec.snapshot()
	wantCP := []core.SwitchStep{
		core.StepGateCheck, core.StepDeferArm, core.StepRetryFire,
		core.StepGateCheck, core.StepStarve,
	}
	gotCP := cpProjection(steps)
	if len(gotCP) != len(wantCP) {
		t.Fatalf("CP took %d steps, want %d: %v", len(gotCP), len(wantCP), gotCP)
	}
	for i := range wantCP {
		if gotCP[i] != wantCP[i] {
			t.Fatalf("CP step %d = %v, want %v", i, gotCP[i], wantCP[i])
		}
	}

	// The held reference is a modeled worker that entered before the
	// request was raised and never exited.
	trace := append([]Action{{Kind: ActEnter, Who: 0}}, translate(t, steps, 1)...)
	cfg := Config{CPUs: 1, Workers: 1, OpsPerWorker: 1, Switches: 1,
		MaxDeferrals: 2, Journal: true}
	vio, err := Replay(cfg, trace)
	if err != nil {
		t.Fatalf("production interleaving rejected by the model: %v", err)
	}
	if vio != VioNone {
		t.Fatalf("production interleaving violates the model: %v", vio)
	}
}
