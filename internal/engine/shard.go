package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// This file is the intra-run sharding layer: one simulated tick is
// restructured into parallel per-node compute phases separated by
// sequential merge barriers, so a single engine run can use several OS
// cores without giving up the byte-identical determinism the whole
// test suite is built on.
//
// The canonical tick is a fixed five-stage pipeline:
//
//	prologue  (sequential)  clock, meter/link refills, batch boundary,
//	                        deferred reconfigurations
//	slots     (parallel)    every node drains its partition slots;
//	                        cross-node effects are staged per slot
//	barrier A (sequential)  staged slot effects fold in rotated slot-ID
//	                        order: marker alignment counts, checkpoint
//	                        captures, state-movement dispatch (engine
//	                        RNG + network), stray reroutes, exact
//	                        results
//	routers   (parallel)    every node generates, classifies and buckets
//	                        its source tasks' tuples; link transfers are
//	                        staged with a shard-local size estimate
//	barrier B (sequential)  staged sends commit on the real network in
//	                        task-ID order, samples deliver, micro-batch
//	                        drains pace out, heartbeats flow
//
// Determinism holds by construction, not by scheduling luck: the
// parallel phases touch only state owned by one cluster node (slots,
// router tasks, CPU meter, entry pool, metrics partial) plus per-slot
// staging buffers, and every cross-node effect is applied at a barrier
// in an order derived from node/slot/task IDs. The number of
// goroutines that actually run therefore cannot change a single output
// bit — which is what lets the engine size its own workers from a
// wall-clock measurement (acquireWorkers), and the run matrix and the
// tick workers share one process-wide worker budget safely.
//
// One carve-out keeps counting mode sound: while routing is being
// changed — markers in flight or moved state outstanding — two slots
// can legally touch the same engine-global counting cell (the old
// owner extracts while the new owner absorbs re-routed tuples), so
// those ticks run the identical pipeline on one worker. This mirrors
// the paper's own scaling argument: partition work is embarrassingly
// parallel per node once routing is fixed; while it is being re-fixed,
// the engine serializes. Exact mode keeps all window state slot-local
// and never needs the carve-out.

// nodeRun groups the execution state owned by one cluster node. During
// the parallel phases a nodeRun is touched by exactly one worker
// goroutine; which worker that is carries no information, because
// everything a phase computes lands either in node-owned state or in
// staging buffers folded at a barrier.
type nodeRun struct {
	id    cluster.NodeID
	slots []*slot       // this node's partition slots, ascending slot ID
	tasks []*routerTask // this node's router tasks, ascending task index

	// entryFree recycles consumed entry objects (and their payload
	// slice capacity). Per node rather than per engine: slot and router
	// phases of the owning worker pop and push without synchronization,
	// and pool membership is unobservable (entries are zeroed on
	// recycle), so migration of entries between node pools via the
	// sequential barriers cannot affect results.
	entryFree []*entry

	// Router-phase staging, reset each tick.
	lostBytes float64   // sends destroyed at dead destinations, folded at barrier B
	provEg    float64   // provisional egress bytes claimed by staged sends
	provIn    []float64 // provisional ingress bytes claimed, per destination node
}

// newEntry returns a zeroed entry from this node's pool.
func (nr *nodeRun) newEntry() *entry {
	if n := len(nr.entryFree); n > 0 {
		en := nr.entryFree[n-1]
		nr.entryFree = nr.entryFree[:n-1]
		return en
	}
	return &entry{}
}

// recycle returns a fully consumed entry to this node's pool. The
// caller must guarantee nothing aliases the entry anymore; payload
// slices are truncated (not freed) so their capacity is reused.
// Entries produced by splitSend share backing arrays with their
// remainder, but the split caps lengths so reuse through the truncated
// slices can never touch the other half.
func (nr *nodeRun) recycle(en *entry) {
	// Field-by-field reset: entry embeds the TupleBlock's 14 slice
	// headers, so a whole-struct literal assignment would copy ~half a
	// kilobyte through duffcopy on every recycled entry — a measurable
	// slice of the tick on the hot path. TestRecycleResetsEveryField
	// walks the struct by reflection, so a field added to entry without
	// a reset here fails the suite instead of leaking stale state.
	en.kind, en.slot = 0, 0
	en.arriveAt, en.watermark, en.epoch = 0, 0, 0
	en.bytes = 0
	en.plan, en.class, en.n = nil, nil, 0
	blk := &en.blk
	blk.TS = blk.TS[:0]
	for c := range blk.Col {
		if blk.Col[c] != nil {
			blk.Col[c] = blk.Col[c][:0]
		}
	}
	blk.W = blk.W[:0]
	en.classBits = en.classBits[:0]
	en.groups = en.groups[:0]
	en.runs = en.runs[:0]
	en.tsBegin, en.tsStep = 0, 0
	en.extraQ, en.copies, en.scale = 0, 0, 0
	en.marker = nil
	en.stQuery, en.stGroup, en.stWeight, en.stStagedW = 0, 0, 0, 0
	en.stAgg = en.stAgg[:0]
	en.stJoin[0] = en.stJoin[0][:0]
	en.stJoin[1] = en.stJoin[1][:0]
	nr.entryFree = append(nr.entryFree, en)
}

// evtKind tags one staged cross-node effect of the slot phase.
type evtKind uint8

const (
	evtAligned     evtKind = iota // slot aligned on a marker epoch
	evtJIT                        // post-alignment compile burst (obs event)
	evtExtract                    // moved-away state ready for dispatch
	evtStray                      // iterator-guard reroute of a stray tuple
	evtCkptCapture                // slot's checkpoint capture fragments
	evtCkptMerge                  // landed moved state folding into a capture
)

// slotEvt is one staged effect. A flat tagged struct (not an
// interface) so the per-slot event buffers recycle their backing
// arrays without boxing allocations on the hot path.
type slotEvt struct {
	kind evtKind

	epoch int64 // evtAligned

	compiles int            // evtJIT
	dur      vtime.Duration // evtJIT

	en *entry // evtExtract: the extracted state entry awaiting dispatch

	qi   int              // evtStray
	g    keyspace.GroupID // evtStray
	w    float64          // evtStray
	side int              // evtStray
	t    Tuple            // evtStray

	frags []CkptGroup // evtCkptCapture: per-(query,group) fragments
	pend  []pendKey   // evtCkptCapture: groups pending in-flight state

	key  pendKey      // evtCkptMerge
	agg  []AggPartial // evtCkptMerge (copied: entries are recycled)
	join [2][]Tuple   // evtCkptMerge (copied)
}

// slotFx is a slot's per-tick staging buffer. Appended by the slot's
// phase worker, drained by the sequential barrier-A fold.
type slotFx struct {
	events  []slotEvt
	results []AggResult // exact-mode window results, in emission order
	markers int         // marker entries consumed (markersInFlight bookkeeping)

	// outstanding is the staged delta to the engine's outstanding-state
	// counter (mergeState decrements).
	outstanding int

	// entries counts deliveries consumed this tick — the per-node work
	// signal behind the shard-utilization gauges. Node-indexed, so the
	// published values are independent of the shard count.
	entries int
}

// stage appends one effect and returns a pointer to fill in.
func (fx *slotFx) stage(kind evtKind) *slotEvt {
	fx.events = append(fx.events, slotEvt{kind: kind})
	return &fx.events[len(fx.events)-1]
}

const (
	phaseSlots = iota
	phaseRouters
)

// tickTurbulent reports whether this tick must run its slot phase on
// one worker: counting-mode window state is engine-global per (query,
// group), and while markers or moved state are in flight the old and
// new owner of a moving group may both touch the same cell. Exact mode
// keeps state slot-local, so it never serializes.
func (e *Engine) tickTurbulent() bool {
	if e.cfg.ExactWindows {
		return false
	}
	return e.markersInFlight > 0 || e.outstandingState != 0
}

// forkJoinCost is the smoothed wall-clock cost of a tick's phases above
// which the engine fans them over worker goroutines. Measured on the
// 2-core reference box (BENCH_pr14.json engine_run and a tick-size
// sweep of its fixtures): two fork/joins cost 20–30 µs and 8–12
// allocations, so the 45–120 µs weight-500 micro tick runs 25–50 %
// slower on two workers and its 180–230 µs batch=1 variant 6–28 %;
// exact-window ticks tie at ≈ 300 µs, win 10–15 % at 400–500 µs and
// take 0.55–0.6× the time from 5 ms up, where `sasparctl serve` runs.
const forkJoinCost = 300 * time.Microsecond

// TickStats reports how the ticks actually ran. Wall-clock dependent,
// so it stays out of everything the determinism fingerprint covers.
type TickStats struct {
	Ticks         int64 // ticks stepped
	ParallelTicks int64 // ticks that ran on more than one worker
	Workers       int   // worker count of the most recent tick
}

// TickStats returns the tick execution counters.
func (e *Engine) TickStats() TickStats { return e.tickStats }

// PinTickWorkers is a test hook: it replaces the engine's own sizing
// with a fixed want of n workers (still clamped to live nodes and the
// budget) so suites and benchmarks can force goroutines onto ticks too
// small to earn them; 0 restores the rule. Nothing under cmd/ calls it.
func (e *Engine) PinTickWorkers(n int) { e.pinnedWorkers = n }

// acquireWorkers resolves this tick's worker count. Ticks whose phases
// have been costing less than forkJoinCost run inline without touching
// the budget; the rest want one worker per core, at most one per live
// node (dead ones have no phase work — see phaseNode), drawn from the
// process-wide budget so matrix workers × tick workers cannot
// oversubscribe the host. The cost is whatever the wall clock showed,
// inline or not: a tick that drops below the constant only because it
// went parallel (inline cost under ~2× it) alternates between the two,
// in the band where they tie. Safe to size from a wall clock and to
// clamp arbitrarily — results are worker-count invariant.
func (e *Engine) acquireWorkers() int {
	want := e.pinnedWorkers
	if want == 0 {
		if e.phaseCost < forkJoinCost {
			return 1
		}
		want = runtime.GOMAXPROCS(0)
	}
	if want = min(want, e.LiveNodes()); want <= 1 {
		return 1
	}
	return 1 + parallel.AcquireTokens(want-1)
}

// releaseWorkers returns the tick's tokens and records what its phases
// cost on the wall clock and what they ran at.
func (e *Engine) releaseWorkers(w int, cost time.Duration) {
	if w > 1 {
		parallel.ReleaseTokens(w - 1)
		e.tickStats.ParallelTicks++
	}
	e.tickStats.Ticks++
	e.tickStats.Workers = w
	e.phaseCost += (cost - e.phaseCost) / 4
}

// runPhase executes one parallel phase over every node. With one
// worker it runs inline on the calling goroutine in node-ID order —
// the allocation-free path the engine_step benchmarks gate. With more,
// workers claim nodes from an atomic counter; the claim order is
// irrelevant to results.
func (e *Engine) runPhase(workers, kind, off int, dt vtime.Duration) {
	if workers <= 1 {
		for _, nr := range e.nodes {
			e.phaseNode(kind, nr, off, dt)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.nodes) {
					return
				}
				e.phaseNode(kind, e.nodes[i], off, dt)
			}
		}()
	}
	wg.Wait()
}

func (e *Engine) phaseNode(kind int, nr *nodeRun, off int, dt vtime.Duration) {
	if e.nodeDown != nil && e.nodeDown[nr.id] {
		return // crashed node: consumes nothing, produces nothing
	}
	if e.nodeRetired(nr.id) {
		return // drained node: emptied before it left, nothing to do
	}
	if kind == phaseSlots {
		e.slotPhase(nr, off)
	} else {
		e.routerPhase(nr, dt)
	}
}

// slotPhase drains one node's partition slots. The visit order is the
// global fairness rotation restricted to this node: slots with id >=
// off first, then the wrap-around — exactly the subsequence the
// pre-shard global loop gave this node, so whichever slot leads the
// claim on the node's CPU meter still rotates tick by tick.
func (e *Engine) slotPhase(nr *nodeRun, off int) {
	k := len(nr.slots)
	if k == 0 {
		return
	}
	start := 0
	for start < k && nr.slots[start].id < off {
		start++
	}
	for i := 0; i < k; i++ {
		nr.slots[(start+i)%k].process(e, nr)
	}
}

// routerPhase runs one node's source tasks: throttle update, tuple
// generation, classification, bucketing, and provisional link sizing.
// All network mutation is deferred to barrier B.
func (e *Engine) routerPhase(nr *nodeRun, dt vtime.Duration) {
	nr.provEg = 0
	for i := range nr.provIn {
		nr.provIn[i] = 0
	}
	for _, rt := range nr.tasks {
		rt.routeTick(e, nr, dt)
	}
}

// foldSlotPhase is barrier A: staged slot effects apply in the same
// rotated slot-ID order the slots were visited in, so the engine RNG
// draw sequence and the shared network budget consumption are a pure
// function of virtual time — never of shard count or goroutine
// scheduling.
func (e *Engine) foldSlotPhase(off int) {
	n := len(e.slots)
	for i := 0; i < n; i++ {
		s := e.slots[(i+off)%n]
		fx := &s.fx
		if fx.markers > 0 {
			e.markersInFlight -= fx.markers
			fx.markers = 0
		}
		if fx.outstanding != 0 {
			e.outstandingState += fx.outstanding
			fx.outstanding = 0
		}
		if e.nodeWork != nil {
			e.nodeWork[s.node] += fx.entries
		}
		fx.entries = 0
		for j := range fx.events {
			ev := &fx.events[j]
			switch ev.kind {
			case evtAligned:
				e.alignedSlots[ev.epoch]++
			case evtJIT:
				if e.obs != nil {
					e.obs.emitJIT(e.clock, ev.compiles, ev.dur)
				}
			case evtExtract:
				e.dispatchExtract(s, ev.en)
				ev.en = nil
			case evtStray:
				e.dispatchStray(s, ev)
			case evtCkptCapture:
				e.foldCkptCapture(ev)
				ev.frags, ev.pend = nil, nil
			case evtCkptMerge:
				e.foldCkptMerge(ev)
				ev.agg, ev.join = nil, [2][]Tuple{}
			}
		}
		fx.events = fx.events[:0]
		// Window results touch nothing the events above read, so they
		// fold after them, still in slot order and emission order.
		for _, r := range fx.results {
			e.results[r.Query].add(r)
		}
		fx.results = fx.results[:0]
	}
}

// dispatchExtract finishes a staged state movement (step 4 of the AQE
// protocol): pick the courier source via the engine RNG, ship both
// network legs, and enqueue the state at its new owner. Runs at
// barrier A so the RNG and the tick's shared link budget are consumed
// in canonical slot order.
func (e *Engine) dispatchExtract(origin *slot, en *entry) {
	qi := en.stQuery
	q := e.queries[qi]
	e.metrics.recordReshuffle(en.stWeight)
	if e.obs != nil {
		e.obs.reshuffled.Add(en.stWeight)
	}
	// The RNG is drawn unconditionally (determinism: the draw sequence
	// must not depend on fault state); a dead courier is then replaced
	// by the first live task so moved state is not pointlessly
	// destroyed.
	src := e.tasks[e.rng.Intn(len(e.tasks))]
	if e.nodeIsDown(src.node) {
		for _, rt := range e.tasks {
			if !e.nodeIsDown(rt.node) {
				src = rt
				break
			}
		}
	}
	// A staged cell ships only its since-barrier residual: the snapshot
	// slice pre-shipped courier→destination when the stage was set up.
	bytes := (en.stWeight - en.stStagedW) * e.streams[q.spec.Inputs[0].Stream].BytesPerTuple
	e.migAlignBytes += bytes
	if en.stStagedW > 0 {
		e.migResidualBytes += bytes
	}
	_, d1 := e.net.Send(origin.node, src.node, bytes)
	owner := int(q.assign.Partition(en.stGroup))
	_, d2 := e.net.Send(src.node, e.placement.PartitionNode(owner), bytes)
	en.slot = owner
	en.arriveAt = e.clock.Add(d1 + d2)
	en.watermark = vtime.NoWatermark
	e.outstandingState++
	e.enqueue(src, en)
}

// dispatchStray finishes a staged iterator-guard reroute: the stray
// travels back through a random source and on to its true owner, which
// absorbs it immediately (delays fold into the next tick's work).
func (e *Engine) dispatchStray(origin *slot, ev *slotEvt) {
	e.metrics.recordReshuffle(ev.w)
	if e.obs != nil {
		e.obs.reshuffled.Add(ev.w)
	}
	q := e.queries[ev.qi]
	bytes := ev.w * e.streams[q.spec.Inputs[ev.side].Stream].BytesPerTuple
	src := e.tasks[e.rng.Intn(len(e.tasks))]
	e.net.Send(origin.node, src.node, bytes)
	owner := int(q.assign.Partition(ev.g))
	if e.nodeIsDown(e.slots[owner].node) {
		// The true owner's node crashed: the stray is unrecoverable
		// until a reconfiguration reassigns the group.
		e.lostBytes += bytes
		return
	}
	e.net.Send(src.node, e.placement.PartitionNode(owner), bytes)
	target := e.slots[owner]
	e.insert(target, q, ev.side, &ev.t, ev.g, ev.w)
	e.metrics.recordProcessed(int(target.node), ev.qi, ev.w)
}

// foldCkptCapture applies one slot's staged checkpoint capture to the
// in-flight checkpoint. Fragment order within the capture is
// irrelevant: assembleCheckpoint sorts every group's payload before
// any byte or float is derived from it.
func (e *Engine) foldCkptCapture(ev *slotEvt) {
	ck := e.ckpt
	if ck == nil || !ck.active {
		return
	}
	for _, k := range ev.pend {
		ck.pending[k] = true
	}
	for i := range ev.frags {
		f := &ev.frags[i]
		cg := ck.group(f.Query, f.Group)
		cg.Agg = append(cg.Agg, f.Agg...)
		cg.Join[0] = append(cg.Join[0], f.Join[0]...)
		cg.Join[1] = append(cg.Join[1], f.Join[1]...)
	}
}

// foldCkptMerge folds a landed state transfer into the in-flight
// capture iff the capture is still waiting on it. The pending check
// runs here — not at stage time — because the mark itself may have
// been staged earlier in this very tick.
func (e *Engine) foldCkptMerge(ev *slotEvt) {
	ck := e.ckpt
	if ck == nil || !ck.active || !ck.pending[ev.key] {
		return
	}
	delete(ck.pending, ev.key)
	cg := ck.group(ev.key.query, ev.key.group)
	cg.Agg = append(cg.Agg, ev.agg...)
	cg.Join[0] = append(cg.Join[0], ev.join[0]...)
	cg.Join[1] = append(cg.Join[1], ev.join[1]...)
}

// routerMerge is barrier B: staged sends commit on the real network in
// global task-ID order — the same order the pre-shard sequential loop
// shipped in — followed by each task's micro-batch machinery and
// heartbeats. Acceptance is settled here, against real link state, so
// several shards contending for one ingress link resolve identically
// at every shard count.
func (e *Engine) routerMerge(boundary bool) {
	for _, rt := range e.tasks {
		if e.nodeDown != nil && e.nodeDown[rt.node] {
			continue
		}
		rt.deliverSamples(e)
		rt.commitPending(e)
		if boundary {
			rt.flushHeld(e)
		}
		if e.cfg.Profile.MicroBatch {
			rt.shipDraining(e)
		}
		rt.heartbeat(e)
	}
	for _, nr := range e.nodes {
		if nr.lostBytes != 0 {
			e.lostBytes += nr.lostBytes
			nr.lostBytes = 0
		}
	}
	e.rebalanceEntryPools()
}

// rebalanceEntryPools deals the free entries evenly across the node
// pools at the end of each tick's sequential merge. Per-node pools let
// the parallel phases recycle without synchronization, but entry flow
// between nodes is asymmetric — a router's entries are recycled at the
// consuming slot's node — so without rebalancing a net-producer node
// allocates fresh entries every tick while a net-consumer pool grows
// without bound. Pool membership is unobservable (entries are zeroed
// on recycle), so redistribution cannot affect results.
func (e *Engine) rebalanceEntryPools() {
	if len(e.nodes) <= 1 {
		return
	}
	total := 0
	for _, nr := range e.nodes {
		total += len(nr.entryFree)
	}
	share := total / len(e.nodes)
	spill := e.entrySpill[:0]
	for _, nr := range e.nodes {
		if n := len(nr.entryFree); n > share {
			spill = append(spill, nr.entryFree[share:]...)
			nr.entryFree = nr.entryFree[:share]
		}
	}
	for _, nr := range e.nodes {
		if d := share - len(nr.entryFree); d > 0 {
			n := len(spill)
			nr.entryFree = append(nr.entryFree, spill[n-d:]...)
			spill = spill[:n-d]
		}
	}
	// The division remainder lands on the first node.
	if len(spill) > 0 {
		e.nodes[0].entryFree = append(e.nodes[0].entryFree, spill...)
		spill = spill[:0]
	}
	e.entrySpill = spill
}
