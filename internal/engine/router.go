package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"unsafe"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// maxClassesPerStream bounds the route classes of one stream so a
// shared tuple's class membership fits a single bitmask word. The
// SASPAR optimizer canonicalizes assignments per query signature, so
// real workloads stay far below this.
const maxClassesPerStream = 64

// queryInst is the engine's handle on one running query. Both inputs
// of a join share the single assignment, per Eq. 3 of the paper.
// Removed ad-hoc queries stay as inactive tombstones so query indexes
// remain stable.
type queryInst struct {
	idx      int
	spec     QuerySpec
	assign   *keyspace.Assignment
	inactive bool
}

// member is one (query, input side) consuming a route class.
type member struct {
	q    *queryInst
	side int
}

// routeClass is a set of (query, side) pairs whose partitioning
// decisions coincide: same stream, same key columns, same filter, and
// the same group→partition assignment. The router computes one route
// per class per tuple; accounting scales by class multiplicity.
type routeClass struct {
	id      int // index within the stream's class list
	stream  StreamID
	key     KeySpec
	filter  func(*Tuple) bool
	filtID  int
	sel     float64
	assign  *keyspace.Assignment
	members []member

	// route is the class's group→partition table, precomputed at plan
	// build so the per-tuple hot path indexes a flat slice instead of
	// chasing the Assignment pointer per lookup. It aliases the live
	// assignment table (see keyspace.Assignment.Table), so it can never
	// drift from assign; plans are rebuilt whenever assignments swap.
	route []keyspace.PartitionID

	// Cost constants, fixed by compile.
	copies        float64 // non-shared: physical copies shipped per row
	opEff, opTerm float64 // see opCPU
}

// classSignature is the grouping key for route-class construction.
// Assignments are compared by content fingerprint, so distinct
// Assignment objects with identical tables still merge (this is what
// collapses hundreds of identical non-shared queries into one class).
type classSignature struct {
	keyFP    uint64
	filtID   int
	sel      float64
	assignFP uint64
}

func (ks KeySpec) fingerprint() uint64 {
	h := uint64(len(ks)) * 0x9E3779B97F4A7C15
	for _, c := range ks {
		h = keyspace.Mix64(h ^ uint64(c+1))
	}
	return h
}

func assignmentFingerprint(a *keyspace.Assignment) uint64 {
	h := uint64(a.NumGroups())
	for g := 0; g < a.NumGroups(); g++ {
		h = keyspace.Mix64(h ^ uint64(a.Partition(keyspace.GroupID(g))+2))
	}
	return h
}

// classifyKernel names the per-block classification loop a plan
// compiled to, mergeKernel the shared merge pass that follows it (see
// compile for the selection, the methods of the same names for what
// each does). A tick executes one of each without asking again.
type classifyKernel uint8

const (
	classifyFused      classifyKernel = iota // folded, 2^k groups, no sampler
	classifyGeneric                          // folded, through a group lane
	classifyRowShared                        // row lanes, shared
	classifyRowScatter                       // row lanes, non-shared
	numClassifyKernels
)

type mergeKernel uint8

const (
	mergeNone     mergeKernel = iota // non-shared, or one shared folded class
	mergePair                        // folded, two classes, every row accepted
	mergeFolded                      // folded, any class count
	mergeRowLanes                    // row lanes
	numMergeKernels
)

// streamPlan is the per-stream routing plan shared by all router tasks
// of that stream: the route classes, plus everything about executing
// them that is a function of the plan, the engine Config and whether a
// sampler is attached. It is rebuilt — never edited — whenever one of
// those changes (assignment swap, query add/remove, SetSampler,
// AddNode), so a task detects the change by pointer (see bind).
type streamPlan struct {
	stream  StreamID
	classes []*routeClass

	shared   bool
	rowLanes bool // exact windows or micro-batch: entries carry per-row lanes
	sampling bool
	// checkAcc: some class rejects rows (filter or sel < 1), so the
	// prepass fills the acceptance lane; hasFilter: it needs the row
	// gathered into a Tuple first.
	checkAcc, hasFilter bool
	// needSlot: the folded merge reads per-(class, row) slots — only
	// when distinct classes could send one row to distinct slots.
	needSlot bool

	numCols  int // schema width the source fills
	laneCols int // column lanes entries carry (exact windows only)
	batch    int // block rows; scratch lanes are strided by it
	groups   int
	slots    int
	buckets  int // dense route keys: slot (shared) or class·slots+slot
	// maskWords is the width of a row's slot mask in the folded merge.
	maskWords int

	classify classifyKernel
	merge    mergeKernel

	// mem is the per-class member count, flat: the merge passes read it
	// once per (row, class).
	mem []int32

	// bytesPer is the wire size of one concrete tuple, weight included.
	bytesPer float64
}

// compile fixes everything routeTick and the slot cost helpers would
// otherwise re-derive per tick, per run or per row.
func (p *streamPlan) compile(e *Engine) {
	cfg, def := &e.cfg, &e.streams[p.stream]
	nc := len(p.classes)
	p.shared = cfg.Shared
	p.rowLanes = cfg.ExactWindows || cfg.Profile.MicroBatch
	p.sampling = e.sampler != nil
	p.numCols, p.batch = def.NumCols, cfg.BatchSize
	if cfg.ExactWindows {
		p.laneCols = def.NumCols
	}
	p.groups, p.slots = cfg.NumGroups, cfg.NumPartitions
	p.maskWords = (p.slots + 63) / 64
	p.buckets = p.slots
	if !p.shared {
		p.buckets = nc * p.slots
	}
	p.needSlot = p.shared && nc > 1
	p.bytesPer = def.BytesPerTuple * cfg.TupleWeight
	for _, rc := range p.classes {
		if rc.filter != nil {
			p.hasFilter, p.checkAcc = true, true
		} else if rc.sel < 1 {
			p.checkAcc = true
		}
		rc.compile(cfg)
		p.mem = append(p.mem, int32(len(rc.members)))
	}

	switch {
	case p.rowLanes && p.shared:
		p.classify = classifyRowShared
	case p.rowLanes:
		p.classify = classifyRowScatter
	case e.space.Mask() != 0 && !p.sampling:
		// Not while sampling: the sampler stages the per-class group
		// lane, which the fused loops never write.
		p.classify = classifyFused
	default:
		p.classify = classifyGeneric
	}
	switch {
	case p.rowLanes && p.shared:
		p.merge = mergeRowLanes
	case p.rowLanes || !p.needSlot:
		p.merge = mergeNone
	case nc == 2 && !p.checkAcc:
		p.merge = mergePair
	default:
		p.merge = mergeFolded
	}
}

// compile fixes the class's cost constants. opEff·opTerm is the
// post-partition operator cost of one unit of tuple weight for all
// members (see opCPU); copies is how many physical copies of a row a
// non-shared router ships.
func (rc *routeClass) compile(cfg *Config) {
	m := float64(len(rc.members))
	rc.copies, rc.opEff, rc.opTerm = m, m, cfg.Cost.AggCPU
	q0 := rc.members[0].q.spec
	if q0.Kind != OpJoin {
		return
	}
	if cfg.Profile.SharedJoinCompute && m > 1 {
		// AJoin: the join work for similar queries runs once, with a
		// small per-extra-query bookkeeping cost.
		rc.opEff = 1 + 0.1*(m-1)
	}
	fan := q0.JoinFanout
	if fan <= 0 {
		fan = 0.25
	}
	rc.opTerm = cfg.Cost.JoinCPU*cfg.Profile.joinCPUFactor() + cfg.Cost.EmitCPU*fan
	// Every member query ships its own copy (Fig. 1a/1b) — except under
	// AJoin's join-group batching, which eliminates part of the
	// duplicate traffic of identical join queries.
	frac := cfg.Profile.JoinDataShareFrac
	for _, mb := range rc.members {
		if mb.q.spec.Kind != OpJoin {
			frac = 0
		}
	}
	if frac > 0 && m > 1 {
		rc.copies = 1 + (1-frac)*(m-1)
	}
}

// opCPU is the post-partition operator cost of one tuple of weight w
// for every member of the class.
func (rc *routeClass) opCPU(w float64) float64 { return w * rc.opEff * rc.opTerm }

// buildStreamPlan groups the stream's active (query, side) inputs into
// route classes and compiles the plan.
func (e *Engine) buildStreamPlan(stream StreamID) (*streamPlan, error) {
	plan := &streamPlan{stream: stream}
	bySig := map[classSignature]*routeClass{}
	for _, q := range e.queries {
		if q.inactive {
			continue
		}
		for side, in := range q.spec.Inputs {
			if in.Stream != stream {
				continue
			}
			sig := classSignature{
				keyFP:    in.Key.fingerprint(),
				filtID:   in.FilterID,
				sel:      in.effectiveSelectivity(),
				assignFP: assignmentFingerprint(q.assign),
			}
			rc, ok := bySig[sig]
			if !ok {
				rc = &routeClass{
					id:     len(plan.classes),
					stream: stream,
					key:    in.Key,
					filter: in.Filter,
					filtID: in.FilterID,
					sel:    sig.sel,
					assign: q.assign,
					route:  q.assign.Table(),
				}
				bySig[sig] = rc
				plan.classes = append(plan.classes, rc)
			}
			rc.members = append(rc.members, member{q: q, side: side})
		}
	}
	if len(plan.classes) > maxClassesPerStream {
		return nil, fmt.Errorf("engine: stream %d has %d route classes, max %d — canonicalize assignments per query signature",
			stream, len(plan.classes), maxClassesPerStream)
	}
	plan.compile(e)
	return plan, nil
}

// runCell is one per-(class, group) accumulator of the folded routing
// pass: row count and the first two moments of the rows' global tick
// indexes, fused in one struct so the hot loop touches a single cell.
type runCell struct{ k, si, si2 int64 }

// pendingSend is an entry routed but not yet shipped: tuple-at-a-time
// profiles stage it during the router phase and commit it at barrier
// B, micro-batch profiles hold sends until the batch boundary and
// release them as a burst.
type pendingSend struct {
	en       *entry
	copies   float64
	bytesPer float64 // wire bytes per concrete tuple (incl. weight)

	// f is the staged send fraction: serialization CPU was burned for
	// this share of the send during the router phase, against the
	// shard-local link estimate. commit re-clamps it downward against
	// authoritative link state before the bytes hit the network.
	f float64
}

// routerTask is one physical instance of a stream's partition operator,
// co-located with its source task (the paper's "Purchases Source 1/2"
// of Fig. 1 each feed their own partitioner).
type routerTask struct {
	idx    int // global router-task index (edge addressing)
	stream StreamID
	task   int
	node   cluster.NodeID
	src    Source
	// feed, when non-nil, switches this task from rate-driven synthesis
	// to wall-clock ingest: routeTick drains blocks queued on the feed
	// instead of asking src for rows (see SetBlockFeed).
	feed BlockFeed
	// fc cursors the external blocks claimed from feed this tick,
	// re-blocking arbitrary incoming block sizes to the engine's batch.
	fc  feedCursor
	rng *rand.Rand

	// rows counts the concrete tuples this task has generated — the raw
	// row throughput behind the sustained Mtuples/sec benchmark figure.
	rows int64

	rate     float64 // offered modelled tuples/sec for this task
	throttle float64 // backpressure pull-rate factor in (0,1]
	stalls   int64   // ticks whose prior-tick sends were partially refused
	carry    float64 // fractional concrete tuple accumulator
	offered  float64 // cumulative modelled tuples offered
	accepted float64 // cumulative modelled tuples actually shipped

	// Per-tick byte accounting feeding the throttle.
	tickOffered  float64
	tickAccepted float64

	held       []pendingSend // micro-batch: sends awaiting the boundary
	heldBytes  float64
	draining   []pendingSend // micro-batch: the materialized batch being paced out
	drainBytes float64

	// pending holds this tick's staged sends awaiting commit at barrier
	// B (tuple-at-a-time path).
	pending []pendingSend

	// gate spaces this task's tuple samples. Per task — not engine-wide
	// — so the sampled subsequence is a function of the task's own
	// tuple stream, invariant under sharding.
	gate sampleGate

	// Staged samples, delivered to the engine's sampler at barrier B in
	// task order. Flat buffers: sampLen[i] classes/groups starting at
	// the running offset belong to the i-th sampled tuple.
	sampClass []int
	sampGroup []keyspace.GroupID
	sampTS    []vtime.Time
	sampLen   []int

	// bound is the plan the scratch below is sized for (see bind).
	bound *streamPlan

	// Routing scratch, sized at bind and left clean by every tick (the
	// task's phases never overlap, so no synchronization): buckets maps
	// a dense route key — slot in shared mode, class·slots+slot in
	// non-shared mode — to the entry being filled. The key space is
	// small (slots, or classes × slots), so a tick's entries are found
	// by scanning it, which is also the order they ship in.
	buckets []*entry

	// Columnar block scratch. blk is the generation block the source
	// fills; the classification passes write per-(class, row) results
	// into flat scatter scratch (class-major, batch-strided):
	//
	//	keyScr  — partition keys of the current class pass
	//	slotScr — target slot per (class, row); -1 = class rejected row
	//	grpScr  — key group per (class, row)
	//	accScr  — per row: bitmask of accepting classes (prepass)
	//	maskScr — per row: bitmask of target slots, maskWords words
	//	          (folded merge)
	//	sampScr — row indexes of the block sampled this tick
	//
	// runAcc accumulates the folded run moments per (class, group)
	// across the whole tick — the class passes only bump one cell's
	// three counters per row; runs materialize at flush by scanning the
	// group space in (class, group) order. Accumulating per tick (never
	// per block) is what makes the run structure a pure function of the
	// tick's rows — one run per (class, slot, group) per tick, however
	// generation was blocked — so everything that folds per run (stray
	// reroute events, reservoir samples) is batch-invariant too.
	// slotN/slotXQ tally the shared merge pass the same flat way:
	// physical rows and extra served queries per target slot. Flush,
	// account and the merge zero what they read, so every tick starts
	// from zeroes.
	blk     TupleBlock
	keyScr  []uint64
	slotScr []int32
	grpScr  []int32
	accScr  []uint64
	maskScr []uint64
	sampScr []int32
	runAcc  []runCell
	slotN   []int32
	slotXQ  []int32
	accCnt  []int64 // per class: rows accepted this tick

	// shim is the Tuple staging cell of the filter prepass. A field, not
	// a local: its address crosses the filter's function-value boundary,
	// and a local would escape to the heap once per block.
	shim Tuple
}

// maxFeedRowsPerTick bounds the rows a wall-clock feed task claims per
// tick (soft: the last claimed block may overshoot). It matches the
// maximum engine batch size, so one tick's claim is at most a handful
// of engine blocks at any configured BatchSize.
const maxFeedRowsPerTick = 1 << 16

// feedCursor adapts the blocks claimed from a BlockFeed this tick to
// the Source interface: NextBlock copies the next rows in arrival order
// into the engine's generation block, so the router's batched loop is
// identical for synthesized and served rows. The TS lane of incoming
// blocks is ignored — the router's even-spread tick stamping is the
// wall-clock → virtual-time translation.
type feedCursor struct {
	blocks []*TupleBlock
	bi, ri int // consume position: block index, row within block
	cols   int
}

func (fc *feedCursor) NextBlock(b *TupleBlock, from, to int) {
	for r := from; r < to; {
		src := fc.blocks[fc.bi]
		avail := src.Len() - fc.ri
		if need := to - r; avail > need {
			avail = need
		}
		for c := 0; c < fc.cols; c++ {
			copy(b.Col[c][r:r+avail], src.Col[c][fc.ri:fc.ri+avail])
		}
		r += avail
		fc.ri += avail
		if fc.ri == src.Len() {
			fc.bi++
			fc.ri = 0
		}
	}
}

// claimFeed drains queued external blocks (bounded per tick) and stages
// them on the cursor; returns the total claimed row count.
func (rt *routerTask) claimFeed(numCols int) int {
	fc := &rt.fc
	fc.blocks = fc.blocks[:0]
	fc.bi, fc.ri = 0, 0
	fc.cols = numCols
	n := 0
	for n < maxFeedRowsPerTick {
		b := rt.feed.Poll()
		if b == nil {
			break
		}
		if b.Len() == 0 {
			rt.feed.Release(b)
			continue
		}
		fc.blocks = append(fc.blocks, b)
		n += b.Len()
	}
	return n
}

// releaseFeed returns the tick's fully consumed blocks to the feed's
// producer for recycling.
func (rt *routerTask) releaseFeed() {
	for i, b := range rt.fc.blocks {
		rt.feed.Release(b)
		rt.fc.blocks[i] = nil
	}
	rt.fc.blocks = rt.fc.blocks[:0]
}

// admit decides how many concrete rows this task routes in a tick of
// length dt, and charges their generation CPU: whatever a wall-clock
// feed has queued, or what the configured rate offers after the credit
// throttle, the micro-batch backlog gate and the node's CPU grant.
func (rt *routerTask) admit(e *Engine, dt vtime.Duration) int {
	cpu := e.cluster.CPU(rt.node)
	if rt.feed != nil {
		// Wall-clock ingest: the rows for this tick are whatever the
		// feed has queued (bounded), not a function of a configured
		// rate. Claimed rows are never dropped — backpressure is applied
		// upstream, at the ingest ring — so generation CPU is charged
		// against the node meter but does not clamp n, and the credit
		// throttle stays idle (its byte counters still reset so a later
		// detach resumes from a clean slate).
		n := rt.claimFeed(e.streams[rt.stream].NumCols)
		if n == 0 {
			return 0
		}
		rt.tickOffered, rt.tickAccepted = 0, 0
		rt.offered += float64(n) * e.cfg.TupleWeight
		cpu.Take(e.cfg.Cost.GenCPU * e.cfg.TupleWeight * float64(n))
		return n
	}

	// Credit-based flow control: the pull rate tracks the fraction of
	// offered bytes the network actually accepted last tick, smoothed,
	// with a small additive probe so the rate recovers when capacity
	// frees up.
	ratio := 1.0
	if rt.tickOffered > 0 {
		ratio = rt.tickAccepted / rt.tickOffered
	}
	if ratio < 1 {
		rt.stalls++
		if e.obs != nil {
			e.obs.stallTicks.Inc()
		}
	}
	rt.tickOffered, rt.tickAccepted = 0, 0
	rt.throttle = 0.7*rt.throttle + 0.3*ratio + 0.02
	if rt.throttle > 1 {
		rt.throttle = 1
	}
	if rt.throttle < 0.02 {
		rt.throttle = 0.02
	}

	// Micro-batch: while the materialized backlog (current batch plus
	// the previous batch still shuffling) exceeds what the NIC can move
	// in two batch intervals, stop pulling — the stage cannot keep up
	// (Prompt's synchronous materialization backpressure).
	if e.cfg.Profile.MicroBatch {
		allowance := 2 * e.net.Bandwidth() * e.cfg.Profile.BatchInterval.Seconds()
		if rt.drainBytes+rt.heldBytes > allowance {
			rt.offered += rt.rate * dt.Seconds()
			return 0
		}
	}

	eff := rt.rate * rt.throttle
	want := eff*dt.Seconds()/e.cfg.TupleWeight + rt.carry
	n := int(want)
	rt.carry = want - float64(n)
	rt.offered += eff * dt.Seconds()
	if n == 0 {
		return 0
	}

	// Source CPU: generation cost. If the node is CPU-starved the grant
	// shrinks and we generate fewer concrete tuples.
	genNeed := e.cfg.Cost.GenCPU * e.cfg.TupleWeight * float64(n)
	if e.cfg.Profile.MicroBatch {
		genNeed += e.cfg.Cost.BatchCPU * e.cfg.TupleWeight * float64(n)
	}
	if g := cpu.Take(genNeed); g < genNeed {
		n = int(float64(n) * g / genNeed)
	}
	return n
}

// bind sizes the task's scratch for a plan it has not routed under
// yet — the only place the tick path allocates. Every tick leaves the
// scratch clean, so a rebind inherits zeroes and nil buckets.
func (rt *routerTask) bind(plan *streamPlan) {
	nc, bs := len(plan.classes), plan.batch
	rt.bound = plan
	rt.buckets = fit(rt.buckets, plan.buckets)
	rt.blk.Resize(bs, plan.numCols)
	rt.keyScr = fit(rt.keyScr, bs)
	rt.accScr = fit(rt.accScr, bs)
	rt.slotScr = fit(rt.slotScr, nc*bs)
	rt.grpScr = fit(rt.grpScr, nc*bs)
	rt.accCnt = fit(rt.accCnt, nc)
	if !plan.rowLanes {
		rt.runAcc = fit(rt.runAcc, nc*plan.groups)
	}
	if plan.shared {
		rt.slotN = fit(rt.slotN, plan.slots)
		rt.slotXQ = fit(rt.slotXQ, plan.slots)
	}
	if plan.merge == mergeFolded {
		rt.maskScr = fit(rt.maskScr, bs*plan.maskWords)
	}
}

// fit returns s with length n, reallocating only when it must grow.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// routeTick generates and routes this task's tuples for one tick of
// length dt ending at e.clock, executing the stream's compiled plan.
// Runs in the parallel router phase: it touches only task/node-local
// state plus read-only engine state, and stages its sends and samples
// for the sequential barrier B.
func (rt *routerTask) routeTick(e *Engine, nr *nodeRun, dt vtime.Duration) {
	n := rt.admit(e, dt)
	if n == 0 {
		return
	}
	plan := e.plans[rt.stream]
	if rt.bound != plan {
		rt.bind(plan)
	}
	src := rt.src
	if rt.feed != nil {
		src = &rt.fc
	}
	rt.rows += int64(n)

	begin := e.clock.Add(-dt)
	step := vtime.Duration(int64(dt) / int64(n))
	blk := &rt.blk
	for lo := 0; lo < n; lo += plan.batch {
		m := min(plan.batch, n-lo)
		if blk.Len() != m { // only the ragged last block, and the one after it
			blk.Resize(m, plan.numCols)
		}
		ts, t := blk.TS, begin.Add(vtime.Duration(lo)*step)
		for r := range ts {
			ts[r] = t
			t = t.Add(step)
		}
		src.NextBlock(blk, 0, m)

		rt.sampScr = rt.sampScr[:0]
		if plan.checkAcc || plan.sampling {
			rt.prepass(plan, m)
		}
		switch plan.classify {
		case classifyFused:
			rt.classifyFused(plan, lo, m)
		case classifyGeneric:
			rt.classifyGeneric(e, plan, lo, m)
		case classifyRowShared:
			rt.classifyRowShared(e, plan, m)
		case classifyRowScatter:
			rt.classifyRowScatter(e, nr, plan, m)
		}
		switch plan.merge {
		case mergePair:
			rt.mergePair(plan, m)
		case mergeFolded:
			rt.mergeFolded(plan, m)
		case mergeRowLanes:
			rt.mergeRowLanes(e, nr, plan, m)
		}
		if len(rt.sampScr) > 0 {
			rt.stageSamples(plan)
		}
	}
	if rt.feed != nil {
		rt.releaseFeed()
	}
	if !plan.rowLanes {
		rt.flushRuns(e, nr, plan)
	}
	rt.account(e, plan)

	// Deterministic ship order: bucket fill order must not leak into
	// network acceptance decisions, so entries ship in key order (slot
	// order in shared mode, class-major in non-shared mode).
	for k, en := range rt.buckets {
		if en == nil {
			continue
		}
		rt.buckets[k] = nil
		en.tsBegin, en.tsStep = begin, step
		rt.emit(e, nr, plan.sendOf(e, en))
	}
}

// openBucket starts the entry for a dense route key first touched this
// tick. The entries come from the node's free list with their slice
// capacity intact, so a steady-state tick allocates nothing here.
func (rt *routerTask) openBucket(e *Engine, nr *nodeRun, plan *streamPlan, bk, slot int, rc *routeClass) *entry {
	b := nr.newEntry()
	b.kind, b.slot = entryData, slot
	b.epoch, b.plan = e.epoch, plan
	if !plan.shared {
		b.class = rc
	}
	rt.buckets[bk] = b
	return b
}

// prepass fills the acceptance lane and picks the block's sampled rows
// — row-major, classes ascending within a row: exactly the RNG draw
// order of tuple-at-a-time execution, so outputs are byte-identical at
// every batch size. A plan with no acceptance lane only samples, and
// its picks are a stride.
func (rt *routerTask) prepass(plan *streamPlan, m int) {
	if !plan.checkAcc {
		rt.sampScr = rt.gate.take(rt.sampScr, m)
		return
	}
	tt, classes := &rt.shim, plan.classes
	hasFilter, sampling := plan.hasFilter, plan.sampling
	for r := 0; r < m; r++ {
		var bits uint64
		if hasFilter {
			rt.blk.RowTuple(tt, r, plan.numCols)
		}
		for ci, rc := range classes {
			ok := true
			if rc.filter != nil {
				ok = rc.filter(tt)
			} else if rc.sel < 1 {
				ok = rt.rng.Float64() < rc.sel
			}
			if ok {
				bits |= 1 << uint(ci)
			}
		}
		rt.accScr[r] = bits
		if sampling && rt.gate.next() {
			rt.sampScr = append(rt.sampScr, int32(r))
		}
	}
}

// classifyFused is the folded classification for power-of-two group
// counts: one pass per class that hashes, picks the run cell and bumps
// it — no group lane round trip. cells is exactly the group space of
// the class, so len(cells)-1 is the group mask and masking with it both
// picks the group and proves the index in range (no bounds check in the
// hot loops).
func (rt *routerTask) classifyFused(plan *streamPlan, lo, m int) {
	ng, bs, lo64 := plan.groups, plan.batch, int64(lo)
	checkAcc, needSlot := plan.checkAcc, plan.needSlot
	for ci, rc := range plan.classes {
		var keys []uint64
		if len(rc.key) == 1 {
			// A single-column key IS the raw lane — uint64(x) of an int64
			// is a bit reinterpretation — so fold the column in place
			// instead of copying it through the key scratch.
			col := rt.blk.Col[rc.key[0]]
			keys = unsafe.Slice((*uint64)(unsafe.Pointer(&col[0])), m)
		} else {
			rc.key.KeyOfBlock(&rt.blk, 0, m, rt.keyScr)
			keys = rt.keyScr[:m]
		}
		cells := rt.runAcc[ci*ng : ci*ng+ng]
		sl := rt.slotScr[ci*bs : ci*bs+m]
		route := rc.route
		acc := int64(m)
		switch {
		case !checkAcc && !needSlot:
			// Every row accepted, slot lane unused (single class or
			// non-shared): the tightest loop.
			gi := lo64
			for _, k := range keys {
				c := &cells[int(keyspace.Mix64(k))&(len(cells)-1)]
				c.k++
				c.si += gi
				c.si2 += gi * gi
				gi++
			}
		case !checkAcc:
			for r, k := range keys {
				g := int(keyspace.Mix64(k)) & (len(cells) - 1)
				sl[r] = int32(route[g])
				gi := lo64 + int64(r)
				c := &cells[g]
				c.k++
				c.si += gi
				c.si2 += gi * gi
			}
		default:
			acc = 0
			bit := uint64(1) << uint(ci)
			for r, k := range keys {
				if rt.accScr[r]&bit == 0 {
					if needSlot {
						sl[r] = -1
					}
					continue
				}
				g := int(keyspace.Mix64(k)) & (len(cells) - 1)
				if needSlot {
					sl[r] = int32(route[g])
				}
				acc++
				gi := lo64 + int64(r)
				c := &cells[g]
				c.k++
				c.si += gi
				c.si2 += gi * gi
			}
		}
		rt.accCnt[ci] += acc
	}
}

// classifyGeneric is the folded classification through a group lane:
// one KeyOfBlock sweep and one GroupsOfKeys sweep per class, then the
// run cells (and, for a multi-class shared plan, the slot lane) in a
// third. Works at any group count and leaves the group lane for the
// sampler.
func (rt *routerTask) classifyGeneric(e *Engine, plan *streamPlan, lo, m int) {
	ng, bs, lo64 := plan.groups, plan.batch, int64(lo)
	needSlot := plan.needSlot
	for ci, rc := range plan.classes {
		sl := rt.slotScr[ci*bs : ci*bs+m]
		gr := rt.grpScr[ci*bs : ci*bs+m]
		rc.key.KeyOfBlock(&rt.blk, 0, m, rt.keyScr)
		e.space.GroupsOfKeys(rt.keyScr[:m], gr)
		cells := rt.runAcc[ci*ng : ci*ng+ng]
		route := rc.route
		acc := int64(m)
		if !plan.checkAcc {
			// Every row accepted: branch-free accumulate.
			for r, g := range gr {
				if needSlot {
					sl[r] = int32(route[g])
				}
				gi := lo64 + int64(r)
				c := &cells[g]
				c.k++
				c.si += gi
				c.si2 += gi * gi
			}
		} else {
			acc = 0
			bit := uint64(1) << uint(ci)
			for r, g := range gr {
				if rt.accScr[r]&bit == 0 {
					if needSlot {
						sl[r] = -1
					}
					continue
				}
				if needSlot {
					sl[r] = int32(route[g])
				}
				acc++
				gi := lo64 + int64(r)
				c := &cells[g]
				c.k++
				c.si += gi
				c.si2 += gi * gi
			}
		}
		rt.accCnt[ci] += acc
	}
}

// classifyRowShared records each class's slot and group lanes; the
// merge pass dedups physical copies and fills the row lanes.
func (rt *routerTask) classifyRowShared(e *Engine, plan *streamPlan, m int) {
	bs, checkAcc := plan.batch, plan.checkAcc
	for ci, rc := range plan.classes {
		sl := rt.slotScr[ci*bs : ci*bs+m]
		gr := rt.grpScr[ci*bs : ci*bs+m]
		rc.key.KeyOfBlock(&rt.blk, 0, m, rt.keyScr)
		e.space.GroupsOfKeys(rt.keyScr[:m], gr)
		bit, route := uint64(1)<<uint(ci), rc.route
		acc := int64(0)
		for r, g := range gr {
			if checkAcc && rt.accScr[r]&bit == 0 {
				sl[r] = -1
				continue
			}
			sl[r] = int32(route[g])
			acc++
		}
		rt.accCnt[ci] += acc
	}
}

// classifyRowScatter scatters accepted rows straight into the
// non-shared per-(class, slot) buckets, lanes and all.
func (rt *routerTask) classifyRowScatter(e *Engine, nr *nodeRun, plan *streamPlan, m int) {
	bs, blk, ts := plan.batch, &rt.blk, rt.blk.TS
	checkAcc, np, laneCols := plan.checkAcc, plan.slots, plan.laneCols
	for ci, rc := range plan.classes {
		gr := rt.grpScr[ci*bs : ci*bs+m]
		rc.key.KeyOfBlock(blk, 0, m, rt.keyScr)
		e.space.GroupsOfKeys(rt.keyScr[:m], gr)
		bit, route := uint64(1)<<uint(ci), rc.route
		acc := int64(0)
		for r, g := range gr {
			if checkAcc && rt.accScr[r]&bit == 0 {
				continue
			}
			acc++
			p := int(route[g])
			bk := ci*np + p
			b := rt.buckets[bk]
			if b == nil {
				b = rt.openBucket(e, nr, plan, bk, p, rc)
			}
			b.blk.TS = append(b.blk.TS, ts[r])
			for c := 0; c < laneCols; c++ {
				b.blk.Col[c] = append(b.blk.Col[c], blk.Col[c][r])
			}
			b.groups = append(b.groups, keyspace.GroupID(g))
			b.n++
		}
		rt.accCnt[ci] += acc
	}
}

// The shared merge passes collect the distinct target slots across
// classes per row: one physical copy per distinct slot (the green
// tuples of Fig. 1c), carrying a few bytes of query-set encoding per
// extra query it serves. Folded layouts only tally physical rows and
// that overhead into the flat per-slot counters; row-lane buckets also
// take the row, its class bitmask and its per-class group lane.

// mergePair is the folded merge for two classes that accept every row —
// the common sharing pair.
func (rt *routerTask) mergePair(plan *streamPlan, m int) {
	m0, m1 := plan.mem[0], plan.mem[1]
	sl0 := rt.slotScr[:m]
	sl1 := rt.slotScr[plan.batch : plan.batch+m]
	slotN, slotXQ := rt.slotN, rt.slotXQ
	for r := 0; r < m; r++ {
		p0, p1 := sl0[r], sl1[r]
		if p0 == p1 {
			slotN[p0]++
			slotXQ[p0] += m0 + m1 - 1
			continue
		}
		slotN[p0]++
		slotN[p1]++
		if m0 > 1 {
			slotXQ[p0] += m0 - 1
		}
		if m1 > 1 {
			slotXQ[p1] += m1 - 1
		}
	}
}

// mergeFolded is the folded merge for any class count. Each class sets
// its rows' slot bits in the per-row slot masks; a bit set for the
// first time is a physical copy, which serves its first query without
// the overhead. Both counts are taken without a branch, so a row costs
// the same however many of its classes share a slot.
func (rt *routerTask) mergeFolded(plan *streamPlan, m int) {
	bs, w := plan.batch, plan.maskWords
	mask, slotN, slotXQ := rt.maskScr[:m*w], rt.slotN, rt.slotXQ
	for ci, mem := range plan.mem {
		for r, p := range rt.slotScr[ci*bs : ci*bs+m] {
			if p < 0 {
				continue
			}
			word, bit := &mask[r*w+int(p>>6)], uint(p)&63
			first := int32(^*word >> bit & 1)
			slotN[p] += first
			slotXQ[p] += mem - first
			*word |= 1 << bit
		}
	}
	clear(mask)
}

// mergeRowLanes is the row-lane merge: the same per-row slot dedup,
// with each distinct slot's bucket taking the row once and every
// accepting class's group.
func (rt *routerTask) mergeRowLanes(e *Engine, nr *nodeRun, plan *streamPlan, m int) {
	var slotTmp, memTmp [maxClassesPerStream]int32
	var bitTmp [maxClassesPerStream]uint64
	bs, blk, ts, laneCols := plan.batch, &rt.blk, rt.blk.TS, plan.laneCols
	for r := 0; r < m; r++ {
		nd := 0
		for ci, mem := range plan.mem {
			p := rt.slotScr[ci*bs+r]
			if p < 0 {
				continue
			}
			j := 0
			for j < nd && slotTmp[j] != p {
				j++
			}
			if j == nd {
				slotTmp[nd], bitTmp[nd], memTmp[nd] = p, 0, 0
				nd++
			}
			bitTmp[j] |= 1 << uint(ci)
			memTmp[j] += mem
			b := rt.buckets[p]
			if b == nil {
				b = rt.openBucket(e, nr, plan, int(p), int(p), nil)
			}
			b.groups = append(b.groups, keyspace.GroupID(rt.grpScr[ci*bs+r]))
		}
		for j := 0; j < nd; j++ {
			b := rt.buckets[slotTmp[j]]
			b.n++
			b.extraQ += int(memTmp[j]) - 1
			b.blk.TS = append(b.blk.TS, ts[r])
			for c := 0; c < laneCols; c++ {
				b.blk.Col[c] = append(b.blk.Col[c], blk.Col[c][r])
			}
			b.classBits = append(b.classBits, bitTmp[j])
		}
	}
}

// stageSamples stages the block's sampled rows for barrier B: the
// sampler is engine-global, so the call itself must wait for the
// sequential merge. Row-major, classes ascending — batch-invariant.
func (rt *routerTask) stageSamples(plan *streamPlan) {
	for _, sr := range rt.sampScr {
		r := int(sr)
		bits := ^uint64(0)
		if plan.checkAcc {
			bits = rt.accScr[r]
		}
		ns := 0
		for ci := range plan.classes {
			if bits&(1<<uint(ci)) == 0 {
				continue
			}
			rt.sampClass = append(rt.sampClass, ci)
			rt.sampGroup = append(rt.sampGroup, keyspace.GroupID(rt.grpScr[ci*plan.batch+r]))
			ns++
		}
		if ns > 0 {
			rt.sampTS = append(rt.sampTS, rt.blk.TS[r])
			rt.sampLen = append(rt.sampLen, ns)
		}
	}
}

// flushRuns materializes the folded buckets: it scans the run
// accumulators in (class, group) order — the canonical order consumers
// fold in — so every entry's run list is born sorted, independent of
// how the tick was blocked, with no per-entry sort pass. Cells and slot
// tallies are zeroed as they are read.
func (rt *routerTask) flushRuns(e *Engine, nr *nodeRun, plan *streamPlan) {
	ng, shared := plan.groups, plan.shared
	for ci, rc := range plan.classes {
		cells := rt.runAcc[ci*ng : ci*ng+ng]
		for g := range cells {
			cell := cells[g]
			if cell.k == 0 {
				continue
			}
			cells[g] = runCell{}
			p := int(rc.route[g])
			bk := p
			if !shared {
				bk = ci*plan.slots + p
			}
			b := rt.buckets[bk]
			if b == nil {
				b = rt.openBucket(e, nr, plan, bk, p, rc)
			}
			b.runs = append(b.runs, classRun{
				class: int32(ci), group: keyspace.GroupID(g),
				k: cell.k, si: cell.si, si2: cell.si2,
			})
			if !plan.needSlot {
				// One class per bucket (or per plan): every run row is
				// its own physical copy.
				b.n += int(cell.k)
			}
		}
	}
	if !shared {
		return
	}
	for bk, b := range rt.buckets {
		if b == nil {
			continue
		}
		if !plan.needSlot {
			// Single class: every copy serves the same member set.
			b.extraQ = int(plan.mem[0]-1) * b.n
			continue
		}
		b.n, b.extraQ = int(rt.slotN[bk]), int(rt.slotXQ[bk])
		rt.slotN[bk], rt.slotXQ[bk] = 0, 0
	}
}

// account charges routing CPU and records ground-truth sharing, folded
// once per tick from the integer per-class acceptance counts: how many
// copies the queries demanded vs how many physically ship (Fig. 1d vs
// 1e — the 16-vs-10 tuples of the paper's example).
func (rt *routerTask) account(e *Engine, plan *streamPlan) {
	routeAcc, demand := int64(0), int64(0)
	for ci, mem := range plan.mem {
		routeAcc += rt.accCnt[ci]
		demand += rt.accCnt[ci] * int64(mem)
		rt.accCnt[ci] = 0
	}
	e.cluster.CPU(rt.node).Take(e.cfg.Cost.RouteCPU * e.cfg.TupleWeight * float64(routeAcc))
	if plan.shared {
		phys := 0
		for _, b := range rt.buckets {
			if b != nil {
				phys += b.n
			}
		}
		e.metrics.recordSharing(int(rt.node), float64(demand)*e.cfg.TupleWeight, float64(phys)*e.cfg.TupleWeight)
	}
}

// sendOf sizes one materialized entry for the wire. Shared: one
// physical copy, extraQ carrying the accumulated query-set encoding
// overhead. Non-shared: the class's copy multiplier.
func (p *streamPlan) sendOf(e *Engine, en *entry) pendingSend {
	if !p.shared {
		m := en.class.copies
		return pendingSend{en: en, copies: m, bytesPer: p.bytesPer * m}
	}
	bytesPer := p.bytesPer
	if en.extraQ > 0 && en.n > 0 {
		bytesPer += float64(en.extraQ) * e.cfg.Cost.SharedOverheadBytes * e.cfg.TupleWeight / float64(en.n)
	}
	return pendingSend{en: en, copies: 1, bytesPer: bytesPer}
}

// emit routes one materialized send: tuple-at-a-time profiles stage it
// for barrier B, micro-batch profiles hold it for the batch boundary.
func (rt *routerTask) emit(e *Engine, nr *nodeRun, ps pendingSend) {
	if e.cfg.Profile.MicroBatch {
		rt.held = append(rt.held, ps)
		rt.heldBytes += ps.bytesPer * float64(ps.en.n)
		return
	}
	rt.stage(e, nr, ps)
}

// stage sizes one send during the parallel router phase: serialization
// CPU is taken from the node-local meter against the shard-local link
// estimate — authoritative link state minus this node's own
// provisional claims — so no CPU is burned on bytes the network would
// obviously refuse. The estimate ignores other nodes' staged sends;
// commit settles true acceptance at barrier B. The staged fraction is
// therefore deterministic: it reads link state frozen for the phase
// plus claims accumulated in this node's fixed task order.
func (rt *routerTask) stage(e *Engine, nr *nodeRun, ps pendingSend) {
	en := ps.en
	sendBytes := ps.bytesPer * float64(en.n)
	dstNode := e.placement.PartitionNode(en.slot)

	if e.nodeIsDown(dstNode) {
		// The slot's node crashed: everything routed at it is lost until
		// a reconfiguration moves its key groups. The bytes still count
		// as offered-but-unaccepted, so the source throttle backs off
		// while the system runs degraded — the sustained throughput dip
		// the recovery experiment measures.
		rt.tickOffered += sendBytes
		nr.lostBytes += sendBytes
		nr.recycle(en)
		return
	}

	f := 1.0
	if dstNode != rt.node {
		// Only remote traffic feeds the throttle: shared-memory
		// handoffs cannot be refused.
		rt.tickOffered += sendBytes
		avail := e.net.EstimateAvailable(rt.node, dstNode, nr.provEg, nr.provIn[dstNode])
		if room := e.sendRoom(dstNode) - nr.provIn[dstNode]; room < avail {
			avail = room
		}
		if avail < 0 {
			avail = 0
		}
		if sendBytes > avail {
			f = avail / sendBytes
		}
		// Serialization CPU sized to the estimated acceptable share.
		serNeed := e.cfg.Cost.SerCPU * e.cfg.TupleWeight * float64(en.n) * ps.copies * f
		if serNeed > 0 {
			if g := e.cluster.CPU(rt.node).Take(serNeed); g < serNeed {
				f *= g / serNeed
			}
		}
		nr.provEg += sendBytes * f
		nr.provIn[dstNode] += sendBytes * f
	}
	ps.f = f
	rt.pending = append(rt.pending, ps)
}

// commit settles one staged send at barrier B: the staged fraction is
// re-clamped downward against authoritative link headroom (several
// nodes' stages may have oversubscribed one ingress link), the bytes
// hit the network, and the entry rides its edge. Runs in global task
// order, so contention between shards resolves identically at every
// shard count.
func (rt *routerTask) commit(e *Engine, ps *pendingSend) {
	en := ps.en
	f := ps.f
	sendBytes := ps.bytesPer * float64(en.n)
	dstNode := e.placement.PartitionNode(en.slot)
	if dstNode != rt.node && f > 0 {
		avail := e.net.Available(rt.node, dstNode)
		if room := e.sendRoom(dstNode); room < avail {
			avail = room
		}
		if avail < 0 {
			avail = 0
		}
		if sendBytes*f > avail {
			f = avail / sendBytes
		}
	}
	acc, delay := e.net.Send(rt.node, dstNode, sendBytes*f)
	if offered := sendBytes * f; offered > 0 {
		f *= acc / offered
	}
	en.scale = f
	en.copies = ps.copies
	en.bytes = sendBytes * f
	en.arriveAt = e.clock.Add(delay)
	en.watermark = e.clock.Add(-e.cfg.WatermarkLag)
	rt.accepted += f * e.cfg.TupleWeight * float64(en.n) * ps.copies
	if dstNode != rt.node {
		rt.tickAccepted += sendBytes * f
	}
	e.enqueue(rt, en)
}

// commitPending settles every staged send, in staging order.
func (rt *routerTask) commitPending(e *Engine) {
	for i := range rt.pending {
		rt.commit(e, &rt.pending[i])
		rt.pending[i].en = nil
	}
	rt.pending = rt.pending[:0]
}

// deliverSamples hands this task's staged tuple samples to the
// engine's sampler, in the order they were drawn, and resets the
// staging buffers (capacity kept).
func (rt *routerTask) deliverSamples(e *Engine) {
	if len(rt.sampLen) == 0 {
		return
	}
	if e.sampler != nil {
		off := 0
		for i, ns := range rt.sampLen {
			e.sampler.Sample(SampleVec{
				Stream:  rt.stream,
				Time:    rt.sampTS[i],
				Classes: rt.sampClass[off : off+ns],
				Groups:  rt.sampGroup[off : off+ns],
			})
			off += ns
		}
	}
	rt.sampClass = rt.sampClass[:0]
	rt.sampGroup = rt.sampGroup[:0]
	rt.sampTS = rt.sampTS[:0]
	rt.sampLen = rt.sampLen[:0]
}

// flushHeld moves the batch buffered at a micro-batch boundary into
// the drain queue; shipDraining paces it onto the network.
func (rt *routerTask) flushHeld(e *Engine) {
	rt.draining = append(rt.draining, rt.held...)
	rt.drainBytes += rt.heldBytes
	rt.held = rt.held[:0]
	rt.heldBytes = 0
}

// shipDraining ships as much of the materialized batch as the network
// will take this tick. Entries larger than the current headroom are
// split so oversized buckets cannot wedge the drain; the remainder
// waits (stage output is persisted, never dropped).
func (rt *routerTask) shipDraining(e *Engine) {
	i := 0
	for ; i < len(rt.draining); i++ {
		ps := rt.draining[i]
		bytes := ps.bytesPer * float64(ps.en.n)
		dst := e.placement.PartitionNode(ps.en.slot)
		// A dead destination must not wedge the drain behind its zero
		// headroom: stage destroys the send and the drain moves on.
		if dst != rt.node && !e.nodeIsDown(dst) {
			avail := e.net.Available(rt.node, dst)
			if room := e.sendRoom(dst); room < avail {
				avail = room
			}
			if avail < bytes {
				// Ship the head that fits; keep the tail for next tick.
				k := int(avail / ps.bytesPer)
				if k > 0 {
					head := splitSend(&rt.draining[i], k)
					rt.shipNow(e, head)
					rt.drainBytes -= head.bytesPer * float64(head.en.n)
				}
				break
			}
		}
		rt.shipNow(e, ps)
		rt.drainBytes -= bytes
	}
	if i > 0 {
		rt.draining = append(rt.draining[:0], rt.draining[i:]...)
	}
	if len(rt.draining) == 0 && rt.drainBytes != 0 {
		rt.drainBytes = 0 // clamp float residue
	}
}

// shipNow sends one entry of the micro-batch drain, which runs at
// barrier B against authoritative link state: stage with no provisional
// claims outstanding sizes the send to exactly what commit will find,
// so the two back to back are one immediate send. A send destroyed at a
// dead destination is tallied at once, in drain order.
func (rt *routerTask) shipNow(e *Engine, ps pendingSend) {
	nr := e.nodes[rt.node]
	nr.provEg = 0
	clear(nr.provIn)
	rt.stage(e, nr, ps)
	e.lostBytes += nr.lostBytes
	nr.lostBytes = 0
	rt.commitPending(e)
}

// splitSend carves the first k rows of a pending send into a new send,
// leaving the remainder in place. Only micro-batch drains split, so the
// entry is always in row-lane layout: the block lanes and the per-row
// metadata (class bits, groups) split alongside. In shared mode the
// groups lane holds one element per (row, class), so its split point is
// the popcount sum of the head's class bitmasks.
func splitSend(ps *pendingSend, k int) pendingSend {
	src := ps.en
	head := *src
	head.blk.TS = src.blk.TS[:k:k]
	src.blk.TS = src.blk.TS[k:]
	for c := range src.blk.Col {
		if len(src.blk.Col[c]) > 0 {
			head.blk.Col[c] = src.blk.Col[c][:k:k]
			src.blk.Col[c] = src.blk.Col[c][k:]
		}
	}
	head.n, src.n = k, src.n-k
	gk := k
	if src.plan.shared && src.classBits != nil {
		gk = 0
		for i := 0; i < k; i++ {
			gk += bits.OnesCount64(src.classBits[i])
		}
	}
	if src.classBits != nil {
		head.classBits = src.classBits[:k:k]
		src.classBits = src.classBits[k:]
	}
	if src.groups != nil {
		head.groups = src.groups[:gk:gk]
		src.groups = src.groups[gk:]
	}
	return pendingSend{en: &head, copies: ps.copies, bytesPer: ps.bytesPer}
}

// heartbeat advances watermarks on every edge of this task, so idle
// edges do not stall downstream window closing.
func (rt *routerTask) heartbeat(e *Engine) {
	wm := e.clock.Add(-e.cfg.WatermarkLag)
	for s := 0; s < e.cfg.NumPartitions; s++ {
		en := e.nodes[rt.node].newEntry()
		en.kind = entryHeartbeat
		en.slot = s
		en.arriveAt = e.clock.Add(e.net.Config().LatMem)
		en.watermark = wm
		en.epoch = e.epoch
		e.enqueue(rt, en)
	}
}

// SampleVec is one sampled tuple's key-group vector: for every route
// class that accepted the tuple, the key group it falls into. The stats
// collector derives per-(query, group) cardinalities and cross-query
// overlap (the SharedWith triangles of Fig. 2a) from these vectors.
type SampleVec struct {
	Stream  StreamID
	Time    vtime.Time
	Classes []int // route-class ids, parallel to Groups; valid only during the call
	Groups  []keyspace.GroupID
}

// Sampler consumes routed-tuple samples. Implementations must copy the
// slices if they retain them.
type Sampler interface {
	Sample(v SampleVec)
}

// sampleGate spaces samples deterministically: one sample every N
// concrete tuples.
type sampleGate struct {
	every int
	n     int
}

func (s *sampleGate) next() bool {
	if s.every <= 0 {
		return false
	}
	s.n++
	if s.n >= s.every {
		s.n = 0
		return true
	}
	return false
}

// take appends the rows of an m-row block that next, asked once per
// row, would pick — every−n−1, then every every-th — and leaves the
// gate where those m calls would.
func (s *sampleGate) take(dst []int32, m int) []int32 {
	if s.every <= 0 {
		return dst
	}
	for r := s.every - s.n - 1; r < m; r += s.every {
		dst = append(dst, int32(r))
	}
	s.n = (s.n + m) % s.every
	return dst
}
