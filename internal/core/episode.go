package core

import (
	"saspar/internal/aqe"
	"saspar/internal/checkpoint"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// One reconfiguration episode (DESIGN.md §3). Every change of the
// running assignments — an optimizer plan, the evacuation after a fault,
// the rebalance after a join, the evacuation a drain needs — is begun by
// begin, moved along once per tick by advance, and ends there or in
// void. Staging is per cell: the moving cells the newest checkpoint
// chain covers pre-ship store→destination while processing continues,
// the AQE markers are held until the slowest transfer lands, and
// alignment ships only the since-barrier residual. Pause-and-transfer is
// the episode that staged no cell: the markers go out at once and
// everything moved ships at alignment, counted as a fallback by reason.

// MigrationMode values for Config.MigrationMode.
const (
	// MigrationStaged pre-stages moving cells from the newest checkpoint
	// chain and ships only the residual at alignment. Requires an armed
	// Checkpoint config; without one every reconfiguration falls back.
	MigrationStaged = "staged"
	// MigrationPause is classic pause-and-transfer: all moved window
	// state ships at the alignment point.
	MigrationPause = "pause"
)

// stage is what an episode put on the wire ahead of its markers (zero:
// nothing). The snapshot it came from stays pinned against pruning until
// the episode resolves: a re-stage after a void must still find it.
type stage struct {
	snapID  int64
	cells   int
	bytes   float64
	slowest vtime.Duration
}

// begin starts the episode for a new assignment set: pre-ship what the
// checkpoint chain covers, then hand the plan to AQE with the instant
// the slowest transfer lands. Reports whether anything moves.
func (s *System) begin(newAssign map[int]*keyspace.Assignment) (bool, error) {
	now := s.eng.Clock()
	st := s.preship(newAssign)
	started, err := s.ctl.Begin(newAssign, now.Add(st.slowest))
	if st.cells == 0 {
		return started, err
	}
	if !started || err != nil {
		s.eng.VoidStagedState()
		return started, err
	}
	s.ckpt.Pin(st.snapID)
	s.ep = st
	if s.obs != nil {
		s.obs.reg.Emit(now, obs.EvMigrationStage,
			obs.I("checkpoint", st.snapID),
			obs.I("cells", int64(st.cells)),
			obs.F("staged_bytes", st.bytes),
			obs.F("ready_ms", st.slowest.Seconds()*1e3))
	}
	return true, nil
}

// preship sends each moving cell the newest checkpoint chain covers
// store→destination and registers it with the engine as staged; cells
// the chain does not cover, or whose destination is down, ship in full
// at alignment. Nothing is staged in pause mode (empty mode: staged
// whenever checkpointing is on), while the controller is busy (Begin
// will say so), when nothing moves, or for a reason counted here.
func (s *System) preship(newAssign map[int]*keyspace.Assignment) stage {
	if s.ckpt == nil || s.cfg.MigrationMode == MigrationPause || s.ctl.Busy() {
		return stage{}
	}
	moving := map[checkpoint.GroupKey]bool{}
	for qi, a := range newAssign {
		if !s.eng.QueryActive(qi) {
			continue
		}
		for _, g := range s.eng.Assignment(qi).Diff(a) {
			moving[checkpoint.GroupKey{Query: qi, Group: g}] = true
		}
	}
	if len(moving) == 0 {
		return stage{}
	}
	store := s.ckpt.StoreNodeID()
	if s.eng.NodeDown(store) {
		// Nothing can ship the staged state. (Restores tolerate a dead
		// store via a courier; staging exists to cut live-migration cost,
		// so it just steps aside.)
		s.fallback("store_down")
		return stage{}
	}
	groups, snap, ok := s.ckpt.LatestFor(s.eng.Clock(), moving)
	if !ok || len(groups) == 0 {
		s.fallback("no_chain")
		return stage{}
	}
	st := stage{snapID: snap.ID}
	net := s.eng.Network()
	for _, cg := range groups {
		d := s.eng.PartitionNode(int(newAssign[cg.Query].Partition(cg.Group)))
		if s.eng.NodeDown(d) || s.eng.NodeRetired(d) {
			continue
		}
		b := s.eng.StageGroup(cg, snap.Barrier)
		if b <= 0 {
			continue
		}
		if _, dur := net.Send(store, d, b); dur > st.slowest {
			st.slowest = dur
		}
		st.bytes += b
		st.cells++
	}
	if st.cells == 0 {
		s.eng.VoidStagedState()
		s.fallback("no_chain")
	}
	return st
}

// advance moves the episode along by one tick, before any producer can
// start the next one: the controller says what happened and the books
// follow — the processing pause of every completed reconfiguration (the
// number the migration figure compares the two transfer modes on), and
// the pin and the staged registry of one that was staged.
func (s *System) advance() {
	switch s.ctl.Poll() {
	case aqe.Done:
		pause := s.ctl.LastAlignDuration().Seconds()
		s.migPauseSec += pause
		if s.obs != nil {
			s.obs.migPause.Observe(pause)
		}
		if s.ep.cells > 0 {
			// The routes flipped: residual shipped, staged registry spent.
			s.ckpt.Unpin(s.ep.snapID)
			s.eng.VoidStagedState()
			s.ep = stage{}
			s.migrationsStaged++
			if s.obs != nil {
				s.obs.stagedEpisodes.Inc()
			}
		}
	case aqe.Dropped:
		// The plan went stale while its markers were held. Whoever
		// produced it re-plans on its own cadence.
		s.void("stale")
	}
	if s.obs != nil {
		s.obs.stagedBytes.Set(s.eng.StagedBytes())
		s.obs.migResidualBytes.Set(s.eng.ResidualBytes())
	}
}

// void ends a staged episode whose markers never went out (a fault
// mid-stage, a stale plan): the staged registry is cleared so no later
// extraction discounts against a snapshot that matches no real
// transfer, the pinned chain released, and the episode counted as a
// fallback.
func (s *System) void(reason string) {
	s.ckpt.Unpin(s.ep.snapID)
	s.eng.VoidStagedState()
	s.ep = stage{}
	s.fallback(reason)
}

// fallback counts one episode that could not (or can no longer) use the
// staged path, labeled by reason.
func (s *System) fallback(reason string) {
	s.migrationFallbacks++
	if s.obs != nil {
		s.obs.reg.Counter(
			"saspar_migration_fallbacks_total{reason=\""+reason+"\"}",
			"Reconfigurations that ran as pause-and-transfer, by reason.").Inc()
		s.obs.reg.Emit(s.eng.Clock(), obs.EvMigrationFallback, obs.S("reason", reason))
	}
}

// relocate plans and begins a movement that is not optional — the
// evacuation of unhealthy or draining nodes, the rebalance onto joined
// ones — so it bypasses the sample and hysteresis gates of the routine
// trigger. The shared layer solves over the allowed partitions with the
// running plan anchored (anchors on excluded partitions are dropped
// inside the optimizer, so evacuation itself pays no movement penalty)
// and MoveCost unset: mandatory movement is not a bill to amortize, and
// the loop waits for this solve even when it is fed (a periodic solve
// in flight meanwhile comes back stale). No plan, a plan keep rejects,
// and the vanilla baseline all get the deterministic respread.
func (s *System) relocate(allowed []bool, keep func(map[int]*keyspace.Assignment) bool, rescale bool) {
	var plan map[int]*keyspace.Assignment
	if s.cfg.Enabled {
		if snap := s.snapshotPlan(allowed); snap != nil {
			if out := <-s.launch(snap).done; out.err == nil {
				s.recordRound(out.res)
				plan = classAssignments(snap.classes, out.res)
			}
		}
	}
	if plan == nil || (keep != nil && !keep(plan)) {
		plan = s.respread(allowed, rescale)
	}
	if plan == nil {
		return
	}
	if _, err := s.begin(plan); err == nil && s.col != nil {
		s.col.Reset(s.eng.Clock())
	}
}

// respread is the plan of last resort over the allowed partitions (nil
// = all of them): clone each distinct running assignment and either
// move only the groups on a disallowed partition, round-robin, or —
// rescale, the vanilla baseline's hash-partitioner rescale — re-map
// every group modulo the live partitions. Queries sharing an assignment
// object keep sharing the clone, so route classes stay collapsed. Nil
// when nothing would move.
func (s *System) respread(allowed []bool, rescale bool) map[int]*keyspace.Assignment {
	var live []keyspace.PartitionID
	for p := 0; p < s.eng.Config().NumPartitions; p++ {
		if allowed == nil || allowed[p] {
			live = append(live, keyspace.PartitionID(p))
		}
	}
	byOld := map[*keyspace.Assignment]*keyspace.Assignment{}
	out := map[int]*keyspace.Assignment{}
	changed := false
	i := 0
	for qi := 0; qi < s.eng.NumQueries(); qi++ {
		if !s.eng.QueryActive(qi) {
			continue
		}
		old := s.eng.Assignment(qi)
		na, ok := byOld[old]
		if !ok {
			na = old.Clone()
			for g := 0; g < na.NumGroups(); g++ {
				gid := keyspace.GroupID(g)
				to := na.Partition(gid)
				if rescale {
					to = live[g%len(live)]
				} else if !allowed[to] {
					to = live[i%len(live)]
					i++
				}
				if to != na.Partition(gid) {
					na.Set(gid, to)
					changed = true
				}
			}
			byOld[old] = na
		}
		out[qi] = na
	}
	if !changed {
		return nil
	}
	return out
}

// next gives the free floor to the first producer that wants it:
// recovery (degraded mode preempts everything), then the autoscaler
// (which also drives the vanilla baseline, and whose rounds occupy AQE
// like any plan), then the optimizer's periodic and drift triggers.
func (s *System) next() {
	if s.cfg.Enabled && s.recoveryPending {
		s.stepRecovery()
		return
	}
	if s.el != nil {
		s.stepElastic()
		if s.ctl.Busy() {
			return
		}
	}
	if !s.cfg.Enabled {
		return
	}
	since := s.eng.Clock().Sub(s.lastTrigger)
	if since >= s.cfg.TriggerInterval {
		s.trigger(triggerPeriodic)
		return
	}
	if s.cfg.DriftTrigger <= 0 || since < s.cfg.TriggerInterval/4 {
		return
	}
	if d := s.maxDrift(); d > s.cfg.DriftTrigger {
		s.driftTriggers++
		if s.obs != nil {
			s.obs.reg.Emit(s.eng.Clock(), obs.EvDriftDetected,
				obs.F("drift", d),
				obs.F("threshold", s.cfg.DriftTrigger))
		}
		s.trigger(triggerDrift)
	} else if s.eng.Clock().Sub(s.lastEpoch) >= s.cfg.TriggerInterval/4 {
		// Roll the statistics epoch so drift stays measurable against a
		// recent baseline even before any trigger.
		s.col.Reset(s.eng.Clock())
		s.lastEpoch = s.eng.Clock()
	}
}
