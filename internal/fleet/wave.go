package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
)

// WaveConfig shapes one rolling-maintenance wave.
type WaveConfig struct {
	// Action is the maintenance performed inside each attach window.
	Action Action
	// BatchSize is how many nodes enter maintenance per batch; the
	// next batch's requests are only submitted once the current batch
	// has fully drained (default 1 — classic one-at-a-time rolling
	// maintenance).
	BatchSize int
	// ArrivalPerTick is how many of a batch's requests are submitted
	// per fleet tick (default BatchSize: the whole batch arrives at
	// once). Lower values stagger arrivals, which is what the sweep's
	// arrival-rate axis varies.
	ArrivalPerTick int
	// DeadlineTicks is each request's admission deadline, measured
	// from submission (0 = no deadline).
	DeadlineTicks int
}

// maxWaveTicks aborts a wave that fails to finish: a wedged admission
// queue must not hang the caller.
const maxWaveTicks = 10000

// BatchReport is one batch's outcome.
type BatchReport struct {
	Index     int      `json:"index"`
	Nodes     []NodeID `json:"nodes"`
	Completed int      `json:"completed"`
	Expired   int      `json:"expired"`
	StartTick Tick     `json:"start_tick"`
	EndTick   Tick     `json:"end_tick"`
}

// WaveReport is a completed (or aborted) wave.
type WaveReport struct {
	Action    string        `json:"action"`
	BatchSize int           `json:"batch_size"`
	Batches   []BatchReport `json:"batches"`
	PerNode   []NodeReport  `json:"per_node"`

	Completed int `json:"completed"`
	Expired   int `json:"expired"`
	Canceled  int `json:"canceled"`

	Aborted     bool   `json:"aborted"`
	AbortReason string `json:"abort_reason,omitempty"`
	FailedNode  NodeID `json:"failed_node,omitempty"`

	Ticks     Tick           `json:"ticks"`
	Admission AdmissionStats `json:"admission"`

	// MeanAttachCyc / MeanDetachCyc / MeanActionCyc average the
	// completed nodes' pipeline costs on their own TSCs.
	MeanAttachCyc hw.Cycles `json:"mean_attach_cyc"`
	MeanDetachCyc hw.Cycles `json:"mean_detach_cyc"`
	MeanActionCyc hw.Cycles `json:"mean_action_cyc"`
}

// serviceTickCycles converts a node pipeline's measured cycles into how
// many fleet ticks its virtual-mode slot stays occupied: one tick per
// millisecond of node time, minimum one. This is what makes slots a
// contended resource — a slow action (a big migration) holds its slot
// longer, backing up the queue.
func serviceTicks(n *Node, rep *NodeReport) Tick {
	msCycles := hw.Cycles(n.M.Hz / 1000)
	total := rep.AttachCyc + rep.ActionCyc + rep.DetachCyc
	t := Tick(total / msCycles)
	if t < 1 {
		t = 1
	}
	return t
}

// RunWave takes the whole fleet through one rolling-maintenance wave,
// one batch at a time. Within a batch, requests arrive at the
// configured rate, the admission controller grants slots up to its
// concurrency bound, granted nodes run the drain → attach → action →
// detach → heal pipeline, and slots are released once the node's
// service time has elapsed on the fleet clock.
//
// Any pipeline failure — a switch that cannot commit, a migration whose
// transaction aborts and then fails its retry-free verdict, or an
// invariant violation in the heal step — aborts the wave: the queue is
// flushed, granted slots are released, every node is driven back to
// native mode, and the report says why.
func (fc *Controller) RunWave(cfg WaveConfig) (*WaveReport, error) {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.ArrivalPerTick < 1 {
		cfg.ArrivalPerTick = cfg.BatchSize
	}
	if cfg.Action == ActionMigrate && fc.Standby == nil {
		return nil, fmt.Errorf("fleet: migrate wave needs a standby (Config.Standby)")
	}
	fc.wavesTotal.Inc()
	rep := &WaveReport{Action: cfg.Action.String(), BatchSize: cfg.BatchSize}
	start := fc.now
	if fc.waveProgress != nil {
		fc.waveProgress.Set(0)
	}
	fc.event(obs.EvWaveStart, -1, uint64(len(fc.Nodes)), uint64(cfg.BatchSize))

	// releases maps a future tick to the requests whose slots free then.
	releases := map[Tick][]NodeID{}
	curBatch := 0

	abort := func(n *Node, why error) (*WaveReport, error) {
		rep.Aborted = true
		rep.AbortReason = why.Error()
		failed := int32(-1)
		if n != nil {
			rep.FailedNode = n.ID
			n.state = NodeFailed
			failed = int32(n.ID)
		}
		fc.event(obs.EvWaveAbort, failed, uint64(curBatch), 0)
		fc.waveAborts.Inc()
		rep.Canceled = fc.Adm.Flush()
		// Drain any slots still accounted (their service windows were
		// still open when the wave died).
		for fc.Adm.InUse() > 0 {
			if err := fc.Adm.Release(); err != nil {
				break
			}
		}
		// Drive every node back to native: an aborted wave must not
		// strand anyone virtual, and nothing may stay hosted.
		for _, node := range fc.Nodes {
			if rerr := fc.recoverNode(node); rerr != nil {
				return rep, fmt.Errorf("fleet: wave aborted (%v); recovering %s: %w",
					why, node.Name, rerr)
			}
			if node.state != NodeFailed {
				node.state = NodeServing
			}
		}
		// Aborts get the same verdict committed waves do: recovery must
		// leave every node quiescent-clean, not merely native.
		if verr := fc.CheckFleetInvariants(); verr != nil {
			return rep, fmt.Errorf("fleet: wave aborted (%v); post-abort invariants: %w",
				why, verr)
		}
		rep.Ticks = fc.now - start
		rep.Admission = fc.Adm.Stats()
		return rep, fmt.Errorf("fleet: wave aborted: %w", why)
	}

	for bi := 0; bi*cfg.BatchSize < len(fc.Nodes); bi++ {
		lo := bi * cfg.BatchSize
		hi := lo + cfg.BatchSize
		if hi > len(fc.Nodes) {
			hi = len(fc.Nodes)
		}
		curBatch = bi
		batch := BatchReport{Index: bi, StartTick: fc.now}
		if fc.waveBatch != nil {
			fc.waveBatch.Set(int64(bi))
		}
		pending := fc.Nodes[lo:hi]
		for _, n := range pending {
			batch.Nodes = append(batch.Nodes, n.ID)
		}

		submitted := 0
		doneInBatch := 0
		for doneInBatch < len(pending) {
			if fc.now-start > maxWaveTicks {
				return abort(nil, fmt.Errorf("wave exceeded %d ticks", maxWaveTicks))
			}
			// 1. Releases scheduled for this tick.
			for range releases[fc.now] {
				if err := fc.Adm.Release(); err != nil {
					return abort(nil, err)
				}
				doneInBatch++
			}
			delete(releases, fc.now)

			// 2. Arrivals: drain (cordon) the next nodes and submit
			// their admission requests at the configured rate.
			for a := 0; a < cfg.ArrivalPerTick && submitted < len(pending); a++ {
				n := pending[submitted]
				n.state = NodeDraining
				req := &Request{Node: n.ID, EnqueuedAt: fc.now}
				if cfg.DeadlineTicks > 0 {
					req.Deadline = fc.now + Tick(cfg.DeadlineTicks)
				}
				if !fc.Adm.Submit(req) {
					// Backpressure: retry next tick, nodes stay ordered.
					fc.event(obs.EvAdmissionReject, int32(n.ID), 0, 0)
					n.state = NodeServing
					break
				}
				submitted++
			}

			// 3. Grants: run the pipeline for every node granted a slot
			// this tick; expired requests count against the batch.
			granted, expired := fc.Adm.Grant(fc.now)
			for _, req := range expired {
				node := fc.Nodes[req.Node]
				node.state = NodeServing // never admitted; keeps serving
				fc.event(obs.EvAdmissionExpire, int32(node.ID),
					uint64(fc.now-req.EnqueuedAt), 0)
				batch.Expired++
				rep.Expired++
				doneInBatch++
			}
			for _, req := range granted {
				node := fc.Nodes[req.Node]
				node.state = NodeMaintaining
				fc.event(obs.EvAdmissionGrant, int32(node.ID),
					uint64(fc.now-req.EnqueuedAt), 0)
				nrep := NodeReport{Node: node.ID, Batch: bi,
					EnqueuedAt: req.EnqueuedAt, GrantedAt: fc.now}
				if err := node.maintain(cfg.Action, fc.cfg.Node.Pages,
					fc.Standby, fc.PreAttach, &nrep); err != nil {
					rep.PerNode = append(rep.PerNode, nrep)
					if cfg.Action == ActionMigrate && nrep.ActionCyc > 0 && !nrep.Migrated {
						fc.event(obs.EvMigrationRollback, int32(node.ID), 0, 0)
					}
					if nrep.DetachCyc > 0 {
						// The pipeline reached detach before dying: a
						// failed heal, not a failed attach or action.
						fc.event(obs.EvHealFail, int32(node.ID), 0, 0)
					}
					return abort(node, err)
				}
				if nrep.ImagePages > 0 {
					fc.event(obs.EvCheckpointDone, int32(node.ID),
						uint64(nrep.ImagePages), 0)
				}
				if nrep.Migrated {
					fc.event(obs.EvMigrationCommit, int32(node.ID),
						uint64(nrep.DowntimeCyc), 0)
				}
				fc.event(obs.EvHealOK, int32(node.ID), 0, 0)
				node.state = NodeHealed
				rel := fc.now + serviceTicks(node, &nrep)
				nrep.ReleasedAt = rel
				rep.PerNode = append(rep.PerNode, nrep)
				releases[rel] = append(releases[rel], node.ID)
				rep.Completed++
				batch.Completed++
				fc.maintained.Inc()
				if fc.attachCyc != nil {
					fc.attachCyc.Observe(nrep.AttachCyc)
					fc.detachCyc.Observe(nrep.DetachCyc)
					fc.actionCyc.Observe(nrep.ActionCyc)
				}
				if fc.waveProgress != nil {
					fc.waveProgress.Set(int64(rep.Completed))
				}
			}

			if fc.OnTick != nil {
				fc.OnTick(fc.now)
			}
			fc.now++
		}
		batch.EndTick = fc.now
		rep.Batches = append(rep.Batches, batch)
	}

	// The wave's verdict: every node must verify clean.
	if err := fc.CheckFleetInvariants(); err != nil {
		return abort(nil, err)
	}
	for _, n := range fc.Nodes {
		if n.state == NodeHealed {
			n.state = NodeServing
		}
	}
	rep.Ticks = fc.now - start
	rep.Admission = fc.Adm.Stats()
	fc.event(obs.EvWaveDone, -1, uint64(rep.Completed), uint64(rep.Ticks))
	var at, dt, ac hw.Cycles
	done := 0
	for i := range rep.PerNode {
		if !rep.PerNode[i].HealedClean {
			continue
		}
		at += rep.PerNode[i].AttachCyc
		dt += rep.PerNode[i].DetachCyc
		ac += rep.PerNode[i].ActionCyc
		done++
	}
	if done > 0 {
		rep.MeanAttachCyc = at / hw.Cycles(done)
		rep.MeanDetachCyc = dt / hw.Cycles(done)
		rep.MeanActionCyc = ac / hw.Cycles(done)
	}
	return rep, nil
}

// recoverNode forces one node back to a clean native state after a wave
// abort: destroy anything it still hosts, detach if attached, verify.
func (fc *Controller) recoverNode(n *Node) error {
	mc := n.MC
	c := n.M.BootCPU()
	if mc.Mode() != core.ModeNative {
		for _, d := range mc.HostedDomains() {
			if err := mc.VMM.HypDomctlDestroy(c, mc.Dom, d.ID); err != nil {
				return fmt.Errorf("destroying leaked dom%d: %w", d.ID, err)
			}
		}
		if err := mc.SwitchSync(c, core.ModeNative); err != nil {
			return fmt.Errorf("detaching: %w", err)
		}
	}
	return nil
}
