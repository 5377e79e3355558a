package core

import (
	"strconv"

	"saspar/internal/checkpoint"
	"saspar/internal/cluster"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// Fault detection and recovery. The paper treats fault tolerance as a
// special case of live reconfiguration (Section VI): a failed node is a
// node the optimizer must exclude, and recovery is an AQE round that
// evacuates its key groups. The control loop here supplies the missing
// pieces — detecting that the cluster changed underneath it, solving
// with the placement domain restricted to healthy nodes, and retrying
// with backoff when a recovery reconfiguration is itself interrupted.

const (
	// recoveryMaxAttempts bounds evacuation attempts per detected fault;
	// past it the system stays degraded until the next health change.
	recoveryMaxAttempts = 6
	// derateThreshold classifies a node as unhealthy when its CPU or NIC
	// derating factor falls below it (crashed nodes always are).
	derateThreshold = 0.5
)

// pollHealth compares the engine's health fingerprint against the last
// poll. On a change it either enters degraded mode (unhealthy nodes
// present) or, when a transient fault reverted on its own, lets the
// completion check below clear it.
func (s *System) pollHealth() {
	fp := s.eng.HealthFingerprint()
	if fp == s.lastHealth {
		return
	}
	s.lastHealth = fp
	unhealthy := s.eng.UnhealthyNodes(derateThreshold)
	if len(unhealthy) == 0 {
		// The cluster healed without our help (transient expired). Any
		// pending recovery resolves through stepRecovery's completion
		// check on the next idle tick.
		return
	}
	s.faultsDetected++
	if !s.recoveryPending {
		s.recoveryPending = true
		s.recoveryStart = s.eng.Clock()
		s.destroyed = nil
	}
	// Record which state cells the fault actually destroyed: this is
	// the set checkpoint restore re-seeds once recovery completes.
	s.noteDestroyed()
	// A new fault invalidates whatever evacuation was being planned:
	// restart the attempt budget and retry immediately.
	s.recoveryAttempts = 0
	s.nextRecoveryTry = s.eng.Clock()
	// A fault also voids any stage still waiting on its pre-shipped
	// transfers: the snapshot may describe state on a node that just
	// died, and the plan itself may now place groups on one. The markers
	// never went out, so nothing is in flight to drain — drop the plan
	// and let recovery re-plan against the new health mask.
	if s.ctl.AbortStage() {
		s.void("fault")
	}
	if s.obs != nil {
		s.obs.faultsDetected.Inc()
		attrs := []obs.KV{obs.S("fingerprint", strconv.FormatUint(fp, 16))}
		for _, n := range unhealthy {
			attrs = append(attrs, obs.I("unhealthy", int64(n)))
		}
		s.obs.reg.Emit(s.eng.Clock(), obs.EvFaultDetected, attrs...)
	}
}

// stepRecovery runs once per idle tick while degraded: first the
// completion check, then — if an evacuation is still owed and the
// backoff expired — another attempt.
func (s *System) stepRecovery() {
	allowed, degraded := s.allowedPartitions()
	if !degraded || s.respread(allowed, false) == nil {
		// Nothing left to evacuate: the cluster healed on its own, or no
		// active query keeps a key group on an unhealthy partition (the
		// last-resort evacuation would move nothing).
		s.finishRecovery()
		return
	}
	now := s.eng.Clock()
	if now < s.nextRecoveryTry {
		return
	}
	if s.recoveryAttempts >= recoveryMaxAttempts {
		// Out of attempts: stay degraded (routine triggers still carry
		// the placement mask) until the next health change resets us.
		return
	}
	s.recoveryAttempts++
	// Exponential virtual-time backoff: 1×, 2×, 4×, ... RecoveryBackoff.
	shift := uint(s.recoveryAttempts - 1)
	if shift > 6 {
		shift = 6
	}
	s.nextRecoveryTry = now.Add(s.cfg.RecoveryBackoff << shift)
	s.relocate(allowed, nil, false)
}

// finishRecovery closes out a detected fault: restore evacuated state
// from the last pre-fault checkpoint, then counters, trace event,
// recovery-time histogram.
func (s *System) finishRecovery() {
	s.recoveryPending = false
	s.recoveries++
	elapsed := s.eng.Clock().Sub(s.recoveryStart)
	s.restoreFromCheckpoint(s.recoveryStart)
	s.destroyed = nil
	lost := s.eng.LostBytes() + s.eng.Network().Stats().BytesLost
	if s.obs != nil {
		s.obs.recoveries.Inc()
		s.obs.recoveryTime.Observe(elapsed.Seconds())
		s.obs.lostBytes.Set(lost)
		s.obs.reg.Emit(s.eng.Clock(), obs.EvFaultRecovered,
			obs.F("recovery_ms", elapsed.Seconds()*1e3),
			obs.I("attempts", int64(s.recoveryAttempts)),
			obs.F("lost_bytes", lost))
	}
	s.recoveryAttempts = 0
}

// noteDestroyed drains the engine's record of (query, group) cells
// whose window state a crash actually destroyed and folds it into the
// restore set. Cells on derated-but-alive nodes are evacuated live
// (and transient faults heal in place), so they never enter the set —
// re-installing a checkpointed copy on top of intact state would
// double-count window contents. Only meaningful with checkpointing on;
// without a coordinator there is nothing to restore from.
func (s *System) noteDestroyed() {
	if s.ckpt == nil {
		return
	}
	cells := s.eng.DrainDestroyedState()
	if len(cells) == 0 {
		return
	}
	if s.destroyed == nil {
		s.destroyed = map[checkpoint.GroupKey]bool{}
	}
	for _, c := range cells {
		s.destroyed[checkpoint.GroupKey{Query: c.Query, Group: c.Group}] = true
	}
}

// restoreFromCheckpoint re-seeds the destroyed key groups from the
// newest checkpoint that completed before the given episode start (the
// fault's detection time, or a drain's start). The state ships from the
// snapshot-store courier node to each group's new owner over the
// simulated network; the restore time reported is the slowest transfer
// (restores fan out in parallel). Counting-mode state and exact-mode
// partials and join rows restore once each (see engine.RestoreGroup).
func (s *System) restoreFromCheckpoint(before vtime.Time) {
	// Pick up cells destroyed after detection (e.g. moved state torn
	// up in flight while the evacuation was still running).
	s.noteDestroyed()
	if s.ckpt == nil || len(s.destroyed) == 0 {
		return
	}
	groups, snap, ok := s.ckpt.LatestBefore(before)
	if !ok {
		return
	}
	courier := s.ckpt.CourierNode()
	net := s.eng.Network()
	var bytes float64
	var slowest vtime.Duration
	restored := 0
	for _, g := range groups {
		if !s.destroyed[checkpoint.GroupKey{Query: g.Query, Group: g.Group}] {
			continue
		}
		b := s.eng.RestoreGroup(g, snap.Barrier)
		if b <= 0 {
			continue
		}
		owner := int(s.eng.Assignment(g.Query).Partition(g.Group))
		_, d := net.Send(courier, s.eng.PartitionNode(owner), b)
		if d > slowest {
			slowest = d
		}
		bytes += b
		restored++
	}
	if restored == 0 {
		return
	}
	if s.obs != nil {
		s.obs.restoreTime.Observe(slowest.Seconds())
		s.obs.restoredBytes.Set(s.eng.RestoredBytes())
		s.obs.reg.Emit(s.eng.Clock(), obs.EvCheckpointRestore,
			obs.I("checkpoint", snap.ID),
			obs.I("groups", int64(restored)),
			obs.F("restored_bytes", bytes),
			obs.F("restore_ms", slowest.Seconds()*1e3))
	}
}

// allowedPartitions builds the optimizer's placement mask from current
// membership and health: false for every partition hosted on a down or
// derated node, on a retired (drained-out) node, or on the node an
// in-flight drain is evacuating. The second result is false when
// nothing needs masking, or when no partition would remain (nowhere to
// evacuate to — masking would only make the solve fail).
func (s *System) allowedPartitions() ([]bool, bool) {
	bad := map[cluster.NodeID]bool{}
	for _, n := range s.eng.UnhealthyNodes(derateThreshold) {
		bad[n] = true
	}
	if s.el != nil && s.el.drainingOn {
		bad[s.el.draining] = true
	}
	allowed := make([]bool, s.eng.Config().NumPartitions)
	any, masked := false, false
	for p := range allowed {
		n := s.eng.PartitionNode(p)
		allowed[p] = !bad[n] && !s.eng.NodeRetired(n)
		if allowed[p] {
			any = true
		} else {
			masked = true
		}
	}
	if !masked || !any {
		return nil, false
	}
	return allowed, true
}
