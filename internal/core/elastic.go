package core

import (
	"saspar/internal/cluster"
	"saspar/internal/elastic"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// Elastic scale-out/in: the control-loop side of runtime node join and
// drain. The policy (internal/elastic) is a pure decision function over
// backpressure signals; this file executes its verdicts. A join admits
// a node through engine.AddNode and immediately rebalances onto the
// grown partition domain (the optimizer's AllowedPartitions simply
// includes the new slots — the inverse of the restricted-domain solve
// recovery uses). A drain is the inverse of recovery's evacuation: the
// draining node's partitions are masked out of every solve, AQE moves
// its key groups off through the ordinary marker/alignment protocol,
// and once the node owns nothing the engine retires it. Residual state
// a racing fault destroyed rides the same checkpoint restore path a
// crash uses, so exactly-once counting survives the drain.

// ElasticConfig arms the autoscaling control loop.
type ElasticConfig struct {
	// Policy sets the decision thresholds (see internal/elastic).
	Policy elastic.Config
	// PollInterval is how often load signals are sampled and the
	// policy stepped. 0 means 1 virtual second.
	PollInterval vtime.Duration
	// SlotsPerNode is how many partition slots each joined node hosts.
	// 0 means the cluster's current mean live-node slot density.
	SlotsPerNode int
}

// elasticRun is the loop's runtime state.
type elasticRun struct {
	cfg  ElasticConfig
	pol  *elastic.Policy
	poll vtime.Duration

	nextPoll   vtime.Time
	lastSigAt  vtime.Time
	lastStalls int64

	draining   cluster.NodeID
	drainingOn bool // a drain is evacuating right now
	drainStart vtime.Time

	joins, drains int
}

// stepElastic runs once per idle tick when the autoscaler is armed:
// at most once per poll interval it samples the load signals, advances
// any in-flight drain, and otherwise steps the policy and executes its
// verdict.
func (s *System) stepElastic() {
	el := s.el
	now := s.eng.Clock()
	if now < el.nextPoll {
		return
	}
	el.nextPoll = now.Add(el.poll)
	sig := s.elasticSignals()
	if el.drainingOn {
		s.stepDrain()
		return
	}
	if !s.eng.ElasticQuiescent() {
		return
	}
	live := s.eng.LiveNodes()
	d := el.pol.Step(live, sig)
	if d.Action == elastic.Hold {
		return
	}
	if s.obs != nil {
		switch d.Action {
		case elastic.Join:
			s.obs.elDecJoin.Inc()
		case elastic.Drain:
			s.obs.elDecDrain.Inc()
		}
		s.obs.reg.Emit(now, obs.EvElasticDecision,
			obs.S("action", d.Action.String()),
			obs.I("live_nodes", int64(live)),
			obs.I("target", int64(d.Nodes)),
			obs.F("queue_depth", sig.QueueFrac),
			obs.F("stall_ticks", sig.StallFrac),
			obs.F("nic_util", sig.NICUtil))
	}
	switch d.Action {
	case elastic.Join:
		s.elasticJoin(d.Nodes)
	case elastic.Drain:
		s.beginDrain()
	}
}

// elasticSignals samples the engine's backpressure signals and
// normalizes them to the policy's dimensionless pressures. The stall
// fraction covers the window since the previous sample.
func (s *System) elasticSignals() elastic.Signals {
	el := s.el
	eng := s.eng
	now := eng.Clock()
	stalls := eng.StallTicks()
	var stallFrac float64
	if tick := eng.Config().Tick; tick > 0 && el.lastSigAt > 0 {
		ticks := int64(now.Sub(el.lastSigAt) / tick)
		if tasks := eng.NumSourceTasks(); tasks > 0 && ticks > 0 {
			stallFrac = float64(stalls-el.lastStalls) / float64(int64(tasks)*ticks)
		}
	}
	el.lastStalls, el.lastSigAt = stalls, now
	var queueFrac float64
	maxQ := eng.Network().Config().MaxQueueBytes
	if live := eng.LiveNodes(); live > 0 && maxQ > 0 {
		queueFrac = eng.InboxBytes() / (float64(live) * maxQ)
	}
	return elastic.Signals{
		QueueFrac: queueFrac,
		StallFrac: stallFrac,
		NICUtil:   eng.Network().QueuePressure(),
	}
}

// elasticJoin admits up to n nodes and rebalances onto them. A join the
// engine refuses (e.g. the partition domain caught up with the key
// groups) silently caps the step — the policy's cooldown prevents a
// refused join from being retried every poll.
func (s *System) elasticJoin(n int) {
	el := s.el
	joined := 0
	for i := 0; i < n; i++ {
		id, parts, err := s.eng.AddNode(el.cfg.SlotsPerNode)
		if err != nil {
			break
		}
		el.joins++
		joined++
		if s.obs != nil {
			s.obs.elJoins.Inc()
			s.obs.elLiveNodes.Set(float64(s.eng.LiveNodes()))
			s.obs.reg.Emit(s.eng.Clock(), obs.EvElasticJoin,
				obs.I("node", int64(id)),
				obs.I("slots", int64(len(parts))),
				obs.I("live_nodes", int64(s.eng.LiveNodes())))
		}
	}
	if joined == 0 {
		return
	}
	// Capacity was added because the cluster is drowning, so moving load
	// onto it is not optional (relocate); the vanilla baseline's rescale is
	// exactly the per-query movement bill shared partitioning avoids.
	//
	// The optimizer's cost model has no notion of NIC saturation: a node
	// hosting no source tasks is pure remote traffic, so for local-heavy
	// workloads the solve can rationally leave the new (still empty) nodes
	// unused even though the cluster is drowning. A rebalance that strands
	// the capacity it was triggered for defeats the join, so such plans are
	// discarded in favor of the deterministic spread; the next routine
	// trigger re-optimizes from the spread anchor with real load on the
	// new nodes.
	allowed, _ := s.allowedPartitions()
	s.relocate(allowed, s.reachesEmptyNodes, true)
}

// reachesEmptyNodes reports whether the plan places at least one key
// group on every live node that currently owns none (the nodes a join
// just admitted). Vacuously true when no such node exists.
func (s *System) reachesEmptyNodes(plan map[int]*keyspace.Assignment) bool {
	used := map[cluster.NodeID]bool{}
	for _, a := range plan {
		for g := 0; g < a.NumGroups(); g++ {
			used[s.eng.PartitionNode(int(a.Partition(keyspace.GroupID(g))))] = true
		}
	}
	for n := 0; n < s.eng.Config().Nodes; n++ {
		id := cluster.NodeID(n)
		if !used[id] && !s.eng.NodeRetired(id) && !s.eng.NodeDown(id) && s.eng.GroupsOnNode(id) == 0 {
			return false
		}
	}
	return true
}

// beginDrain picks the drain candidate and opens the drain episode.
// Candidates are live nodes hosting no source tasks, highest ID first —
// elastically joined nodes drain before any seed node, and ingress
// nodes never drain.
func (s *System) beginDrain() {
	el := s.el
	cand, ok := s.drainCandidate()
	if !ok {
		return
	}
	el.draining, el.drainingOn = cand, true
	el.drainStart = s.eng.Clock()
	if s.obs != nil {
		s.obs.reg.Emit(el.drainStart, obs.EvElasticDrainStart,
			obs.I("node", int64(cand)),
			obs.I("groups", int64(s.eng.GroupsOnNode(cand))))
	}
	s.stepDrain()
}

func (s *System) drainCandidate() (cluster.NodeID, bool) {
	for i := s.eng.Config().Nodes - 1; i >= 0; i-- {
		id := cluster.NodeID(i)
		if s.eng.NodeRetired(id) || s.eng.NodeDown(id) || s.eng.NodeHostsSources(id) {
			continue
		}
		return id, true
	}
	return 0, false
}

// stepDrain advances an in-flight drain by one poll: retire the node if
// it is already empty and the protocols are quiescent, otherwise start
// (or restart) an evacuation round with the node's partitions masked.
func (s *System) stepDrain() {
	el := s.el
	n := el.draining
	if s.eng.NodeDown(n) {
		// The draining node crashed mid-drain; recovery owns it now and
		// the drain episode is void.
		el.drainingOn = false
		return
	}
	if s.eng.GroupsOnNode(n) == 0 && s.eng.ElasticQuiescent() {
		if err := s.eng.RetireNode(n); err != nil {
			return
		}
		el.drainingOn = false
		el.drains++
		// Checkpoint-path handoff: a clean drain destroyed nothing, but
		// state a racing fault tore up was recorded cell-by-cell — re-seed
		// exactly those cells from the newest pre-drain checkpoint so
		// counting stays exactly-once.
		if !s.recoveryPending {
			s.restoreFromCheckpoint(el.drainStart)
			s.destroyed = nil
		}
		if s.obs != nil {
			s.obs.elDrains.Inc()
			s.obs.elLiveNodes.Set(float64(s.eng.LiveNodes()))
			elapsed := s.eng.Clock().Sub(el.drainStart)
			s.obs.elDrainTime.Observe(elapsed.Seconds())
			s.obs.reg.Emit(s.eng.Clock(), obs.EvElasticDrainDone,
				obs.I("node", int64(n)),
				obs.F("drain_ms", elapsed.Seconds()*1e3),
				obs.I("live_nodes", int64(s.eng.LiveNodes())))
		}
		return
	}
	allowed, ok := s.allowedPartitions()
	if !ok {
		// Nowhere to move the groups: abort the drain instead of wedging.
		el.drainingOn = false
		return
	}
	s.relocate(allowed, nil, false)
}

// ElasticState exposes the autoscaler's progress for harnesses: joins
// and drains completed, and whether a drain is evacuating right now.
func (s *System) ElasticState() (joins, drains int, draining bool) {
	if s.el == nil {
		return 0, 0, false
	}
	return s.el.joins, s.el.drains, s.el.drainingOn
}
