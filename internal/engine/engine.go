package engine

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/netsim"
	"saspar/internal/vtime"
)

// Engine executes a set of continuous queries over a simulated cluster
// in virtual time. One Engine instance is one "system under test" run:
// a vanilla SPE when cfg.Shared is false, its SASPAR-ed counterpart
// when true. The SASPAR control layer (internal/core) drives the
// engine's statistics hooks and reconfiguration entry points.
//
// Externally the engine behaves single-threaded: all entry points are
// called from one goroutine, and determinism is what makes the AQE
// correctness tests and the figure reproductions exact. Internally each
// tick may fan per-node work over worker goroutines — see shard.go for
// the phase pipeline, how the engine sizes the workers itself, and why
// their number cannot change one output bit.
type Engine struct {
	cfg     Config
	streams []StreamDef
	queries []*queryInst

	space     keyspace.Space
	cluster   *cluster.Cluster
	net       *netsim.Network
	placement cluster.Placement

	plans []*streamPlan // per stream
	tasks []*routerTask // all router tasks, stream-major
	slots []*slot
	nodes []*nodeRun // per-node execution state (slots, tasks, pools)

	// Per-tick worker sizing (see acquireWorkers): the smoothed cost of
	// the parallel phases the engine observes on itself, the test-only
	// pin that overrides it, and what the ticks actually ran at.
	phaseCost     time.Duration
	pinnedWorkers int
	tickStats     TickStats

	// markersInFlight counts marker entries injected but not yet
	// consumed (or destroyed). While nonzero, counting-mode slot phases
	// serialize: old and new owners of a moving group may touch the
	// same engine-global counting cell (see tickTurbulent).
	markersInFlight int

	// nodeWork accumulates per-node edge deliveries consumed per tick
	// for the shard-utilization gauges; nil unless obs is attached.
	nodeWork []int

	// entrySpill is scratch for the per-tick free-list rebalance (see
	// rebalanceEntryPools), reused so rebalancing never allocates.
	entrySpill []*entry

	clock   vtime.Time
	epoch   int64
	metrics *Metrics
	rng     *rand.Rand

	// obs is nil unless a telemetry registry is attached (SetObs);
	// every hook in the tick loop guards on it so the disabled path
	// stays allocation-free.
	obs *engObs

	sampler Sampler

	qcount  []*qCounting
	results []resultLog // per query

	// inboxBytes tracks per-node ingress buffer occupancy (delivered
	// but unprocessed entries); full buffers refuse further sends —
	// receiver-side backpressure, which also keeps marker alignment
	// latency bounded under overload.
	inboxBytes []float64

	outstandingState int
	alignedSlots     map[int64]int
	inFlightEpoch    int64                        // reconfig epoch not yet complete (0 = none)
	pendingReconfig  map[int]*keyspace.Assignment // micro-batch deferral

	// nodeDown is nil until the first fault is injected (SetNodeDown), so
	// fault-free runs pay a single never-taken nil check on the hot path.
	// lostBytes counts data destroyed by node death: queued entries at
	// crash time plus bytes routed at a dead node's slots before the
	// optimizer reassigns their key groups.
	nodeDown  []bool
	lostBytes float64

	// anyRetired is false until the first RetireNode (same hot-path
	// discipline as nodeDown): runs that never drain a node pay one
	// predictable branch per retired-node check. The per-node retired
	// state itself lives in the cluster.
	anyRetired bool

	// ckpt is nil until the first BeginCheckpoint (same lazy discipline
	// as nodeDown), so checkpoint-free runs keep the hot path cold.
	// restoredBytes counts window state re-installed via RestoreGroup.
	ckpt          *engCkpt
	restoredBytes float64

	// destroyedState records the (query, group) cells whose window
	// state node crashes actually destroyed — resident state on a dead
	// node plus moved state torn up in flight. It is nil until the
	// first crash and drained by the recovery layer, which restores
	// exactly this set: state on derated-but-alive nodes is evacuated
	// live, so re-seeding it from a checkpoint would double-count.
	destroyedState map[pendKey]bool

	// staged is the checkpoint-staged migration registry: (query, group)
	// cells whose destination holds a pre-staged snapshot copy, so their
	// at-alignment transfer ships only the since-barrier residual. Nil
	// outside a staged migration; written only between ticks (StageGroup
	// / VoidStagedState), read-only during the slot phase — see
	// migrate.go. The three accumulators feed the migration metrics.
	staged           map[pendKey]stagedCell
	stagedBytesTotal float64
	migResidualBytes float64
	migAlignBytes    float64
}

// New builds an engine. Queries that should share an assignment (e.g.
// identical signatures grouped by the optimizer) may pass the same
// *Assignment; otherwise each query starts from the consistent-hashing
// ring's initial assignment.
func New(cfg Config, streams []StreamDef, queries []QuerySpec) (*Engine, error) {
	if err := cfg.validate(streams, queries); err != nil {
		return nil, err
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	e := &Engine{
		cfg:          cfg,
		streams:      streams,
		space:        keyspace.NewSpace(cfg.NumGroups),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		alignedSlots: map[int64]int{},
	}
	e.cluster = cluster.New(cfg.Nodes, cfg.NodeConfig)
	e.net = netsim.New(e.cluster, cfg.Net)
	e.placement = e.cluster.PlaceRoundRobin(cfg.NumPartitions, cfg.SourceTasks*len(streams))

	ring := keyspace.NewRing(cfg.NumPartitions, 16)
	initial := ring.InitialAssignment(e.space)
	for i, q := range queries {
		e.queries = append(e.queries, &queryInst{idx: i, spec: q, assign: initial.Clone()})
	}
	if err := e.rebuildPlans(); err != nil {
		return nil, err
	}

	// Router tasks, stream-major, co-located with their source slots.
	ti := 0
	for si := range streams {
		for t := 0; t < cfg.SourceTasks; t++ {
			rt := &routerTask{
				idx:      ti,
				stream:   StreamID(si),
				task:     t,
				node:     e.placement.SourceNode(ti),
				src:      streams[si].NewSource(t),
				rng:      rand.New(rand.NewSource(cfg.Seed + int64(ti)*7919 + 1)),
				throttle: 1,
			}
			e.tasks = append(e.tasks, rt)
			ti++
		}
	}
	for p := 0; p < cfg.NumPartitions; p++ {
		e.slots = append(e.slots, newSlot(p, e.placement.PartitionNode(p), len(e.tasks)))
	}

	// Per-node execution state: slots and tasks grouped by owning node
	// (ascending id within each node), plus the per-node entry pools.
	e.nodes = make([]*nodeRun, cfg.Nodes)
	for n := range e.nodes {
		e.nodes[n] = &nodeRun{id: cluster.NodeID(n), provIn: make([]float64, cfg.Nodes)}
	}
	for _, s := range e.slots {
		nr := e.nodes[s.node]
		nr.slots = append(nr.slots, s)
	}
	for _, rt := range e.tasks {
		nr := e.nodes[rt.node]
		nr.tasks = append(nr.tasks, rt)
	}

	e.inboxBytes = make([]float64, cfg.Nodes)
	e.metrics = newMetrics(len(queries), cfg.Nodes)
	e.qcount = make([]*qCounting, len(queries))
	for i, q := range queries {
		e.qcount[i] = newQCounting(len(q.Inputs), cfg.NumGroups)
	}
	e.results = make([]resultLog, len(queries))
	return e, nil
}

// rebuildPlans regroups and recompiles every stream's plan. Called
// whenever anything a plan is compiled from changes: assignments, the
// query set, the sampler, the partition-slot count.
func (e *Engine) rebuildPlans() error {
	plans := make([]*streamPlan, len(e.streams))
	for si := range e.streams {
		p, err := e.buildStreamPlan(StreamID(si))
		if err != nil {
			return err
		}
		plans[si] = p
	}
	e.plans = plans

	// Flow contention tracks the number of physical copy streams the
	// partitioners maintain: one per member query without sharing, one
	// per route class with it.
	if e.net != nil && e.cfg.FlowContentionCoeff > 0 {
		flows := 0.0
		for _, p := range plans {
			for _, rc := range p.classes {
				if e.cfg.Shared {
					flows++
				} else {
					flows += float64(len(rc.members))
				}
			}
		}
		e.net.SetFlowContention(flows, e.cfg.FlowContentionCoeff)
	}
	return nil
}

// SetStreamRate sets a logical stream's offered rate in modelled tuples
// per virtual second, split evenly over its source tasks.
func (e *Engine) SetStreamRate(s StreamID, tuplesPerSec float64) {
	per := tuplesPerSec / float64(e.cfg.SourceTasks)
	for _, rt := range e.tasks {
		if rt.stream == s {
			rt.rate = per
		}
	}
}

// SetBlockFeed attaches a wall-clock ingest feed to one (stream, task)
// source: from the next tick on, that router task stops synthesizing
// rows from its configured rate and instead drains blocks queued on the
// feed, stamping them with event times spread evenly across each tick.
// Pass nil to detach and return to rate-driven generation. Must be
// called from the engine's driving goroutine, like every entry point.
func (e *Engine) SetBlockFeed(s StreamID, task int, f BlockFeed) error {
	for _, rt := range e.tasks {
		if rt.stream == s && rt.task == task {
			rt.feed = f
			return nil
		}
	}
	return fmt.Errorf("engine: no source task %d for stream %d", task, s)
}

// Fed reports whether any source task has a feed attached: the engine
// is then paced by rows that arrive on the wall clock, not by a virtual
// clock that runs free.
func (e *Engine) Fed() bool {
	for _, rt := range e.tasks {
		if rt.feed != nil {
			return true
		}
	}
	return false
}

// SetSampler installs the statistics sampler: every `every`-th concrete
// tuple per router task yields a SampleVec. The spacing gate is
// per-task (each task counts only its own tuples), so the sampled set
// is independent of the shard count; samples are delivered to the
// Sampler sequentially at the tick's merge barrier, in task order.
// Whether a sampler is attached is compiled into the stream plans, so
// they are rebuilt.
func (e *Engine) SetSampler(s Sampler, every int) {
	e.sampler = s
	for _, rt := range e.tasks {
		rt.gate = sampleGate{every: every}
	}
	if err := e.rebuildPlans(); err != nil {
		panic(err) // the classes are unchanged, so their bound still holds
	}
}

// Clock returns the current virtual time.
func (e *Engine) Clock() vtime.Time { return e.clock }

// Metrics returns the run metrics accumulator.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// GeneratedTuples reports the cumulative count of concrete tuples the
// engine's source tasks have generated — the raw row volume pushed
// through the columnar data plane, which benchmarks divide by wall
// clock for a sustained Mtuples/sec figure.
func (e *Engine) GeneratedTuples() int64 {
	var n int64
	for _, rt := range e.tasks {
		n += rt.rows
	}
	return n
}

// Network returns the simulated interconnect (for byte accounting).
func (e *Engine) Network() *netsim.Network { return e.net }

// Space returns the key-group space.
func (e *Engine) Space() keyspace.Space { return e.space }

// Config returns the run configuration.
func (e *Engine) Config() Config { return e.cfg }

// Assignment returns query qi's current assignment (read-only view).
func (e *Engine) Assignment(qi int) *keyspace.Assignment { return e.queries[qi].assign }

// Results returns the emitted exact-mode window results of query qi,
// contiguous and in emission order. The log itself is paged; the slice
// is a copy kept beside it and extended by what was emitted since the
// last call, so callers that only need the count use ResultCount.
func (e *Engine) Results(qi int) []AggResult { return e.results[qi].all() }

// ResultCount is len(Results(qi)) without materializing the slice.
func (e *Engine) ResultCount(qi int) int { return e.results[qi].n }

// SourceAcceptedRate reports the cumulative accepted modelled tuple
// rate across all sources (offered minus backpressure losses).
func (e *Engine) SourceAcceptedRate() float64 {
	if e.clock == 0 {
		return 0
	}
	var acc float64
	for _, rt := range e.tasks {
		acc += rt.accepted
	}
	return acc / e.clock.Seconds()
}

// ClassOf reports the stream and route-class id serving query qi's
// input side — the key the statistics collector indexes by.
func (e *Engine) ClassOf(qi, side int) (StreamID, int) {
	q := e.queries[qi]
	s := q.spec.Inputs[side].Stream
	for _, rc := range e.plans[s].classes {
		for _, m := range rc.members {
			if m.q.idx == qi && m.side == side {
				return s, rc.id
			}
		}
	}
	panic(fmt.Sprintf("engine: query %d side %d not found in stream %d plan", qi, side, s))
}

// LocalFractions reports, per partition slot, the fraction of router
// tasks co-located with it — the Lat_p blending input of Table I.
func (e *Engine) LocalFractions() []float64 {
	out := make([]float64, e.cfg.NumPartitions)
	if len(e.tasks) == 0 {
		return out
	}
	for p := range out {
		n := 0
		for _, rt := range e.tasks {
			if rt.node == e.placement.PartitionNode(p) {
				n++
			}
		}
		out[p] = float64(n) / float64(len(e.tasks))
	}
	return out
}

// NumStreams reports the stream count.
func (e *Engine) NumStreams() int { return len(e.streams) }

// NumQueries reports the query count.
func (e *Engine) NumQueries() int { return len(e.queries) }

// QuerySpecOf returns query qi's specification.
func (e *Engine) QuerySpecOf(qi int) QuerySpec { return e.queries[qi].spec }

// Run advances the simulation by d of virtual time. A non-positive
// duration is a caller bug (a miscomputed warm-up or measurement
// interval) that would silently no-op, so it is rejected.
func (e *Engine) Run(d vtime.Duration) error {
	if d <= 0 {
		return fmt.Errorf("engine: run duration must be positive, got %v", d)
	}
	end := e.clock.Add(d)
	for e.clock < end {
		e.step()
	}
	return nil
}

// step advances one tick through the phase pipeline of shard.go:
// sequential prologue, parallel slot phase, barrier-A fold, parallel
// router phase, barrier-B merge.
func (e *Engine) step() {
	dt := e.cfg.Tick
	prev := e.clock
	e.clock = e.clock.Add(dt)
	e.cluster.BeginTick(dt)
	e.net.BeginTick(dt)

	boundary := true
	if e.cfg.Profile.MicroBatch {
		bi := vtime.Time(e.cfg.Profile.BatchInterval)
		boundary = prev/bi != e.clock/bi
	}
	// Micro-batch: deferred reconfiguration applies synchronously at
	// the materialization point (the paper's Prompt/Spark 3.x model).
	if boundary && e.pendingReconfig != nil {
		pr := e.pendingReconfig
		e.pendingReconfig = nil
		e.applyReconfig(pr)
	}

	// Slots drain before sources produce: downstream work gets first
	// claim on node CPU, which is how backpressure (rather than
	// producer starvation) regulates an overloaded pipeline.
	//
	// Fairness rationale for the rotation offset: slots sharing a node
	// compete for one CPU meter, and process() drains greedily until
	// the meter runs dry — whichever slot goes first wins the whole
	// tick budget under overload. Rotating the start offset by one slot
	// per tick round-robins that first claim, so over any window of
	// len(slots) ticks every slot leads exactly once and sustained
	// starvation of a fixed slot is impossible. The offset is derived
	// from the clock (not an incrementing counter) so a run's schedule
	// depends only on virtual time, keeping replays and the parallel
	// bench runner bit-identical. The same offset orders the barrier-A
	// fold, so cross-slot effects apply in the visit order too.
	off := 0
	if len(e.slots) > 0 {
		off = int(e.clock/vtime.Time(dt)) % len(e.slots)
	}

	workers := e.acquireWorkers()
	slotWorkers := workers
	if e.tickTurbulent() {
		slotWorkers = 1 // counting-mode reconfig window: see shard.go
	}
	start := time.Now()
	e.runPhase(slotWorkers, phaseSlots, off, dt)
	e.foldSlotPhase(off)
	e.runPhase(workers, phaseRouters, off, dt)
	e.releaseWorkers(workers, time.Since(start))
	e.routerMerge(boundary)

	if e.obs != nil {
		e.observeTick()
	}
}

// enqueue places an entry on the (task, slot) edge and charges the
// target node's ingress buffer. Entries bound for a crashed or retired
// node's slot are destroyed instead: their bytes count as lost, a state
// entry releases its outstanding-state hold so the reconfiguration that
// tried to move it can still terminate, and a destroyed marker leaves
// the in-flight count. (Retired slots own no key groups, so what lands
// here is heartbeats — zero bytes — and defensive cleanup.) Only called
// from the sequential phases (barriers, marker broadcast), never from
// inside a parallel phase.
func (e *Engine) enqueue(rt *routerTask, en *entry) {
	if dst := e.slots[en.slot].node; (e.nodeDown != nil && e.nodeDown[dst]) || e.nodeRetired(dst) {
		e.lostBytes += en.bytes
		switch en.kind {
		case entryState:
			e.outstandingState--
			e.ckptDropPending(pendKey{en.stQuery, en.stGroup})
			e.markStateDestroyed(pendKey{en.stQuery, en.stGroup})
		case entryMarker:
			e.markersInFlight--
		}
		e.nodes[rt.node].recycle(en)
		return
	}
	e.inboxBytes[e.slots[en.slot].node] += en.bytes
	e.slots[en.slot].edges[rt.idx].push(en)
}

// inboxCapBytes bounds a node's ingress buffer (delivered, unprocessed
// entries) — ~a dozen ticks of NIC line rate.
const inboxCapBytes = 256 << 20

// sendRoom reports how many more bytes node dst's ingress buffer can
// take.
func (e *Engine) sendRoom(dst cluster.NodeID) float64 {
	r := inboxCapBytes - e.inboxBytes[dst]
	if r < 0 {
		return 0
	}
	return r
}

// InjectReconfig starts the AQE protocol for a new set of assignments
// (query index → new assignment). Queries absent from the map keep
// their current assignment. On a micro-batch profile the change waits
// for the next batch boundary; on a tuple-at-a-time profile it starts
// immediately and proceeds asynchronously with processing.
func (e *Engine) InjectReconfig(newAssign map[int]*keyspace.Assignment) error {
	if e.inFlightEpoch != 0 && !e.ReconfigComplete(e.inFlightEpoch) {
		return fmt.Errorf("engine: reconfiguration epoch %d still in flight", e.inFlightEpoch)
	}
	for qi, a := range newAssign {
		if qi < 0 || qi >= len(e.queries) {
			return fmt.Errorf("engine: reconfig references unknown query %d", qi)
		}
		if a.NumGroups() != e.cfg.NumGroups {
			return fmt.Errorf("engine: reconfig assignment for query %d covers %d groups, want %d", qi, a.NumGroups(), e.cfg.NumGroups)
		}
		if !a.Complete() {
			return fmt.Errorf("engine: reconfig assignment for query %d is incomplete", qi)
		}
		for g := 0; g < a.NumGroups(); g++ {
			p := a.Partition(keyspace.GroupID(g))
			if int(p) >= e.cfg.NumPartitions {
				return fmt.Errorf("engine: reconfig assignment for query %d maps group %d to partition %d, have %d slots", qi, g, p, e.cfg.NumPartitions)
			}
			if e.nodeRetired(e.placement.PartitionNode(int(p))) {
				return fmt.Errorf("engine: reconfig assignment for query %d maps group %d to partition %d on retired node %d", qi, g, p, e.placement.PartitionNode(int(p)))
			}
		}
	}
	if e.cfg.Profile.MicroBatch {
		if e.pendingReconfig == nil {
			e.pendingReconfig = map[int]*keyspace.Assignment{}
		}
		for qi, a := range newAssign {
			e.pendingReconfig[qi] = a
		}
		return nil
	}
	e.applyReconfig(newAssign)
	return nil
}

// applyReconfig swaps router tables and injects the reconfiguration
// markers (step 1 of the protocol).
func (e *Engine) applyReconfig(newAssign map[int]*keyspace.Assignment) {
	delta := &PlanDelta{
		OldAssign: map[int]*keyspace.Assignment{},
		Moved:     map[int][]keyspace.GroupID{},
	}
	changed := false
	for qi, a := range newAssign {
		q := e.queries[qi]
		moved := q.assign.Diff(a)
		if len(moved) == 0 {
			continue
		}
		delta.OldAssign[qi] = q.assign
		delta.Moved[qi] = moved
		q.assign = a
		changed = true
	}
	if !changed {
		return
	}
	e.epoch++
	e.inFlightEpoch = e.epoch
	if err := e.rebuildPlans(); err != nil {
		// Assignments were validated; only the class bound can trip.
		panic(err)
	}
	e.broadcastMarker(&Marker{Epoch: e.epoch, Kind: MarkerReconfig, Delta: delta})
}

// InjectFinalize broadcasts the second marker round (step 5).
func (e *Engine) InjectFinalize() {
	e.epoch++
	e.broadcastMarker(&Marker{Epoch: e.epoch, Kind: MarkerFinalize})
}

// broadcastMarker injects one marker per (task, slot) edge. Markers are
// coordinator-injected control messages, so edges of sources on crashed
// nodes still carry them — otherwise live slots could never align after
// a source node died. Markers aimed at dead slots are destroyed at
// enqueue; ReconfigComplete only counts live slots. Retired slots are
// skipped outright — they left the protocol when their node drained,
// and liveSlotCount excludes them symmetrically.
func (e *Engine) broadcastMarker(m *Marker) {
	for _, rt := range e.tasks {
		for s := 0; s < e.cfg.NumPartitions; s++ {
			if e.nodeRetired(e.slots[s].node) {
				continue
			}
			en := e.nodes[rt.node].newEntry()
			en.kind = entryMarker
			en.slot = s
			en.arriveAt = e.clock.Add(e.net.Config().LatNet)
			en.watermark = e.clock.Add(-e.cfg.WatermarkLag)
			en.epoch = m.Epoch
			en.marker = m
			// Count before enqueue: a marker destroyed at a dead slot is
			// uncounted again inside enqueue.
			e.markersInFlight++
			e.enqueue(rt, en)
		}
	}
}

// AddQuery registers a new continuous query at run time — the ad-hoc
// arrival the AJoin workload is built around. The query starts on the
// consistent-hashing ring's initial assignment and is folded into the
// next optimization round by the SASPAR layer. Returns the new query's
// index. Rejected while a reconfiguration is in flight.
func (e *Engine) AddQuery(spec QuerySpec) (int, error) {
	if e.inFlightEpoch != 0 && !e.ReconfigComplete(e.inFlightEpoch) {
		return 0, fmt.Errorf("engine: cannot add a query during reconfiguration epoch %d", e.inFlightEpoch)
	}
	if err := spec.validate(e.streams); err != nil {
		return 0, err
	}
	ring := keyspace.NewRing(e.cfg.NumPartitions, 16)
	qi := len(e.queries)
	e.queries = append(e.queries, &queryInst{
		idx:    qi,
		spec:   spec,
		assign: ring.InitialAssignment(e.space),
	})
	if err := e.rebuildPlans(); err != nil {
		e.queries = e.queries[:qi]
		if rerr := e.rebuildPlans(); rerr != nil {
			panic(rerr) // restoring the previous plan cannot fail
		}
		return 0, err
	}
	e.metrics.addQuery()
	e.qcount = append(e.qcount, newQCounting(len(spec.Inputs), e.cfg.NumGroups))
	e.results = append(e.results, resultLog{})
	return qi, nil
}

// RemoveQuery retires a running query ad hoc: its route classes stop
// shipping data immediately and its window state is dropped. Indexes
// of other queries are unaffected. Rejected while a reconfiguration is
// in flight.
func (e *Engine) RemoveQuery(qi int) error {
	if qi < 0 || qi >= len(e.queries) || e.queries[qi].inactive {
		return fmt.Errorf("engine: no active query %d", qi)
	}
	if e.inFlightEpoch != 0 && !e.ReconfigComplete(e.inFlightEpoch) {
		return fmt.Errorf("engine: cannot remove a query during reconfiguration epoch %d", e.inFlightEpoch)
	}
	e.queries[qi].inactive = true
	if err := e.rebuildPlans(); err != nil {
		panic(err) // removing members cannot grow the class count
	}
	// Tombstone the query's metric rows: counts it accumulated inside
	// the current measurement window would otherwise keep inflating the
	// overall-throughput sum after the query is gone.
	e.metrics.removeQuery(qi)
	// Drop state everywhere.
	e.ckptDropQuery(qi)
	e.qcount[qi] = newQCounting(len(e.queries[qi].spec.Inputs), e.cfg.NumGroups)
	for _, s := range e.slots {
		s.dropExact(qi)
		for k := range s.pendingState {
			if k.query == qi {
				delete(s.pendingState, k)
			}
		}
		for k := range s.held {
			if k.query == qi {
				delete(s.held, k)
			}
		}
	}
	return nil
}

// QueryActive reports whether query qi is still running.
func (e *Engine) QueryActive(qi int) bool {
	return qi >= 0 && qi < len(e.queries) && !e.queries[qi].inactive
}

// ReconfigComplete reports whether every live slot aligned on the given
// epoch and all moved state has been merged at its new owner. Slots on
// crashed nodes can never align (their markers are destroyed at
// enqueue), so completion is measured against the live slot count; a
// slot that aligned before its node died still counts, hence >=.
func (e *Engine) ReconfigComplete(epoch int64) bool {
	return e.alignedSlots[epoch] >= e.liveSlotCount() && e.outstandingState == 0
}

// Epoch returns the current reconfiguration epoch.
func (e *Engine) Epoch() int64 { return e.epoch }

// nodeIsDown reports whether node n has crashed. Kept tiny so the hot
// path inlines it to a nil check in fault-free runs.
func (e *Engine) nodeIsDown(n cluster.NodeID) bool {
	return e.nodeDown != nil && e.nodeDown[n]
}

// liveSlotCount counts partition slots on nodes that are still up and
// not drained out.
func (e *Engine) liveSlotCount() int {
	if e.nodeDown == nil && !e.anyRetired {
		return len(e.slots)
	}
	n := 0
	for _, s := range e.slots {
		if (e.nodeDown != nil && e.nodeDown[s.node]) || e.nodeRetired(s.node) {
			continue
		}
		n++
	}
	return n
}

// SetNodeDown crashes node n (down=true) or restores it. A crash is
// fail-stop: every entry delivered to the node but not yet processed is
// destroyed (bytes lost, in-flight moved state released), its ingress
// buffer empties, its slots stop consuming and its sources stop
// producing, and the network refuses traffic touching it. Data routed
// at its slots afterwards is destroyed at enqueue until a
// reconfiguration moves their key groups to live nodes.
func (e *Engine) SetNodeDown(n cluster.NodeID, down bool) {
	if e.nodeDown == nil {
		if !down {
			return
		}
		e.nodeDown = make([]bool, e.cfg.Nodes)
	}
	if e.nodeDown[n] == down {
		return
	}
	e.nodeDown[n] = down
	e.net.SetNodeDown(n, down)
	if !down {
		return
	}
	e.lostBytes += e.purgeNodeQueues(n)
	// Fail-stop applies to state too: the window state resident on the
	// node dies with it and is tallied as lost — exactly the loss a
	// checkpoint bounds.
	e.lostBytes += e.destroyNodeState(n)
}

// NodeDown reports whether node n is crashed.
func (e *Engine) NodeDown(n cluster.NodeID) bool { return e.nodeIsDown(n) }

// SetNodeCPUFactor derates node n's CPU to f of nominal (straggler
// fault); 1 restores full speed.
func (e *Engine) SetNodeCPUFactor(n cluster.NodeID, f float64) { e.cluster.SetCPUFactor(n, f) }

// SetNodeNICFactor derates node n's NIC to f of nominal (brownout
// fault); 1 restores full bandwidth.
func (e *Engine) SetNodeNICFactor(n cluster.NodeID, f float64) { e.net.SetNodeFactor(n, f) }

// PartitionNode reports which node hosts partition slot p.
func (e *Engine) PartitionNode(p int) cluster.NodeID { return e.placement.PartitionNode(p) }

// LostBytes reports the cumulative bytes destroyed by node crashes at
// the engine layer (queued entries at crash time plus post-crash sends
// routed at dead slots). Wire-level losses appear separately in
// Network().Stats().BytesLost.
func (e *Engine) LostBytes() float64 { return e.lostBytes }

// HealthFingerprint folds every node's liveness, CPU derating, and NIC
// derating into one value: the SASPAR control loop detects faults (and
// recoveries) by watching it change between polls. Retired nodes fold a
// fixed departed tag — whatever happens to a machine that drained out
// (a later derate of its idle meters, say) is not a fault.
func (e *Engine) HealthFingerprint() uint64 {
	h := uint64(1469598103934665603)
	for n := 0; n < e.cfg.Nodes; n++ {
		id := cluster.NodeID(n)
		if e.nodeRetired(id) {
			h = (h ^ 0x7e71ed ^ uint64(n)) * 1099511628211
			continue
		}
		bits := math.Float64bits(e.cluster.CPUFactor(id)) ^ keyspace.Mix64(math.Float64bits(e.net.NodeFactor(id)))
		if e.nodeIsDown(id) {
			bits ^= 0xdeadc0de
		}
		h = (h ^ bits ^ uint64(n)) * 1099511628211
	}
	return h
}

// UnhealthyNodes returns the nodes currently crashed or derated below
// the given factor threshold — the set the optimizer must route around.
// Retired nodes are never unhealthy: they left on purpose, own nothing,
// and must not trip the recovery loop.
func (e *Engine) UnhealthyNodes(threshold float64) []cluster.NodeID {
	var out []cluster.NodeID
	for n := 0; n < e.cfg.Nodes; n++ {
		id := cluster.NodeID(n)
		if e.nodeRetired(id) {
			continue
		}
		if e.nodeIsDown(id) || e.cluster.CPUFactor(id) < threshold || e.net.NodeFactor(id) < threshold {
			out = append(out, id)
		}
	}
	return out
}
