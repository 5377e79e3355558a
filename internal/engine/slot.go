package engine

import (
	"sort"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// entryKind tags what an edge delivers to a slot.
type entryKind uint8

const (
	entryData      entryKind = iota // routed tuples
	entryHeartbeat                  // watermark only
	entryMarker                     // AQE notification (Section III, step 1)
	entryState                      // re-partitioned window state of a moved key group
)

// classRun is the folded form of one (route class, key group) run of a
// data entry: k rows of the tick landed in group g for class class. The
// integer row-index sums si = Σi and si2 = Σi² (over tick-global row
// indexes, whose event times are tsBegin + i·tsStep) let the consumer
// reconstruct the run's exact latency moments without per-row state —
// and, being integer, they are independent of how generation was
// blocked into batches.
type classRun struct {
	class int32
	group keyspace.GroupID
	k     int64
	si    int64
	si2   int64
}

// entry is one delivery on a (routerTask → slot) edge. Edges are FIFO:
// arrival times are monotonic per edge, which is what lets the marker
// protocol separate pre- and post-reconfiguration tuples.
//
// Data entries carry their payload in one of two layouts:
//
//   - Folded (counting windows, tuple-at-a-time profiles): no per-row
//     lanes at all. n counts the concrete rows, runs holds one classRun
//     per (class, group), and row event times are tsBegin + i·tsStep.
//     Slots meter and fold whole runs — the batched hot path.
//   - Row lanes (exact windows, or micro-batch profiles whose drain
//     splits entries by rows): blk carries the timestamp lane (plus
//     column lanes in exact mode), with groups / classBits parallel to
//     its rows as before.
type entry struct {
	kind      entryKind
	slot      int
	arriveAt  vtime.Time
	watermark vtime.Time
	epoch     int64 // routing epoch the entry was produced under

	// bytes is the wire size this entry still occupies in its target
	// node's ingress buffer (receiver-side backpressure accounting).
	bytes float64

	// Data payload.
	plan      *streamPlan        // routing-time plan snapshot: layout, sharing, classes
	class     *routeClass        // non-shared: the single class
	n         int                // concrete rows carried
	blk       TupleBlock         // row lanes (row-lane layout only)
	classBits []uint64           // per row (shared mode, row-lane layout)
	groups    []keyspace.GroupID // per (row, class) key group (row-lane layout)
	runs      []classRun         // folded layout: per-(class, group) runs, sorted
	tsBegin   vtime.Time         // folded layout: event time of tick row 0
	tsStep    vtime.Duration     // folded layout: event-time spacing of tick rows
	extraQ    int                // shared: Σ per-copy extra served queries (wire overhead)
	copies    float64            // physical copies represented (non-shared: members)
	scale     float64            // network/CPU acceptance factor applied to weights

	// Marker payload.
	marker *Marker

	// State-transfer payload (one moved key group of one query).
	stQuery  int
	stGroup  keyspace.GroupID
	stWeight float64
	// stStagedW is the slice of stWeight already resident at the
	// destination via checkpoint pre-staging; dispatchExtract ships and
	// the destination deserializes only stWeight - stStagedW. Zero
	// outside a staged migration. The merge still folds the full
	// stWeight — the staged copy is a wire/CPU discount, never state.
	stStagedW float64
	stAgg     []AggPartial // exact-mode aggregation partials
	stJoin    [2][]Tuple   // exact-mode join buffers per side
}

// edgeQueue is a FIFO of entries with O(1) amortized pop.
type edgeQueue struct {
	buf  []*entry
	head int
	last vtime.Time // enforce per-edge FIFO on arrival stamps
}

func (q *edgeQueue) push(en *entry) {
	if en.arriveAt < q.last {
		en.arriveAt = q.last
	}
	q.last = en.arriveAt
	q.buf = append(q.buf, en)
}

func (q *edgeQueue) peek() *entry {
	if q.head >= len(q.buf) {
		return nil
	}
	return q.buf[q.head]
}

func (q *edgeQueue) pop() *entry {
	en := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head > 256 && q.head*2 >= len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return en
}

func (q *edgeQueue) empty() bool { return q.head >= len(q.buf) }

type pendKey struct {
	query int
	group keyspace.GroupID
}

// slot is one cluster-wide partition slot: the downstream side of the
// partition operator, hosting the iterator guard and every query's
// window operator instance for the key groups assigned here.
type slot struct {
	id   int
	node cluster.NodeID

	edges     []edgeQueue  // one per router task
	edgeWM    []vtime.Time // high-water watermark per edge
	blocked   []bool       // edge halted at a marker, awaiting alignment
	seenEpoch int64        // highest epoch this slot aligned on
	alignLeft int          // markers still missing for the in-flight epoch
	alignM    *Marker      // the marker being aligned on

	wm        vtime.Time // min edge watermark: safe-to-emit threshold
	busyUntil vtime.Time // JIT compilation blocks processing until here

	// pendingState marks (query, group) pairs moved TO this slot whose
	// window state is still in flight; their windows must not emit
	// until the state arrives (correctness guard of step 4).
	pendingState map[pendKey]bool

	// exact holds per-query concrete window state (exact mode only),
	// indexed by query; see exact.go.
	exact []exactQuery
	// winFree and slabFree recycle closed window instances and join-run
	// chunks; cells, cellsTmp, rowScratch and one are reused scratch for
	// sorted key walks, extracted row indexes and tuple-at-a-time
	// inserts.
	winFree         []*winTable
	slabFree        [][]int64
	cells, cellsTmp []keyIdx
	rowScratch      []int32
	one             TupleBlock
	// held parks tuples of moved-in groups until their state merges:
	// one columnar block per pending (query, group), the weight lane
	// carrying each row's modelled weight, sides parallel to the rows.
	held map[pendKey]*heldBlock

	// decayMemo caches the last counting-decay factor folded on this
	// slot (see expMemo); slot-owned so shard workers never share it.
	decayMemo expMemo

	// fx stages this slot's cross-node effects during the parallel slot
	// phase; the barrier-A fold drains it in canonical slot order (see
	// shard.go).
	fx slotFx
}

func newSlot(id int, node cluster.NodeID, numEdges int) *slot {
	s := &slot{
		id:           id,
		node:         node,
		edges:        make([]edgeQueue, numEdges),
		edgeWM:       make([]vtime.Time, numEdges),
		blocked:      make([]bool, numEdges),
		wm:           vtime.NoWatermark,
		pendingState: make(map[pendKey]bool),
	}
	for i := range s.edgeWM {
		s.edgeWM[i] = vtime.NoWatermark
	}
	return s
}

// process drains processable entries within this tick's CPU budget.
// Runs inside the (possibly parallel) slot phase: it may touch only
// state owned by this slot's node plus the slot's staging buffer, and
// in counting mode the engine-global counting cells its routing
// exclusively owns (serialized during reconfiguration windows — see
// tickTurbulent).
func (s *slot) process(e *Engine, nr *nodeRun) {
	if e.clock < s.busyUntil {
		return // JIT compilation in progress
	}
	cpu := e.cluster.CPU(s.node)
	for {
		progressed := false
		for ei := range s.edges {
			q := &s.edges[ei]
			for {
				en := q.peek()
				if en == nil || en.arriveAt > e.clock {
					break
				}
				if s.blocked[ei] {
					break
				}
				if en.watermark > s.edgeWM[ei] {
					s.edgeWM[ei] = en.watermark
				}
				if en.kind == entryMarker {
					// Align: halt this edge until every edge delivered
					// the marker (step 2, sync point).
					if s.alignM == nil || s.alignM.Epoch < en.marker.Epoch {
						s.alignM = en.marker
						s.alignLeft = len(s.edges)
					}
					s.blocked[ei] = true
					s.alignLeft--
					// The Marker object is retained via alignM; the
					// carrier entry is done and returns to the pool. Its
					// in-flight count decrements at the barrier fold.
					nr.recycle(q.pop())
					s.fx.markers++
					s.fx.entries++
					progressed = true
					if s.alignLeft == 0 {
						s.completeAlignment(e, nr)
					}
					continue
				}
				// Non-marker entries: need CPU before consuming.
				need := s.entryCPU(e, en)
				if need > 0 && cpu.Remaining() <= 0 {
					return // node out of budget this tick
				}
				if need > cpu.Remaining() && !e.cfg.ExactWindows && en.kind == entryData {
					// Split the entry: consume the affordable fraction,
					// shrink the rest for next tick (counting mode only).
					frac := cpu.Remaining() / need
					if frac < 0.01 {
						return
					}
					part := *en
					part.scale = en.scale * frac
					cpu.Take(need * frac)
					s.consume(e, nr, &part)
					en.scale *= 1 - frac
					e.inboxBytes[s.node] -= en.bytes * frac
					en.bytes *= 1 - frac
					progressed = true
					return // budget exhausted
				}
				cpu.Take(need)
				q.pop()
				e.inboxBytes[s.node] -= en.bytes
				s.consume(e, nr, en)
				// consume copies everything it keeps (window state,
				// held tuples, state partials), so the entry and its
				// payload capacity go back to the free list.
				nr.recycle(en)
				s.fx.entries++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	s.advanceWatermark(e)
}

// entryCPU computes the processing cost of an entry on this slot.
func (s *slot) entryCPU(e *Engine, en *entry) float64 {
	switch en.kind {
	case entryHeartbeat:
		return 0
	case entryState:
		// The staged slice was deserialized when it pre-shipped, off the
		// alignment critical path; only the residual costs CPU here.
		return e.cfg.Cost.DeserCPU * (en.stWeight - en.stStagedW)
	}
	c := &e.cfg.Cost
	w := e.cfg.TupleWeight * en.scale
	n := float64(en.n)
	var need float64
	if en.plan.shared {
		need += c.DeserCPU * w * n // one physical copy
		if en.runs != nil {
			// Folded layout: one opCPU evaluation per class run instead
			// of one per (row, class). Runs are sorted by class, so the
			// per-class cost is computed once per contiguous group.
			plan := en.plan
			li := int32(-1)
			var op float64
			for i := range en.runs {
				r := &en.runs[i]
				if r.class != li {
					li = r.class
					op = plan.classes[li].opCPU(w)
				}
				need += op * float64(r.k)
			}
			return need
		}
		plan := en.plan
		for i := 0; i < en.n; i++ {
			bits := en.classBits[i]
			for _, rc := range plan.classes {
				if bits&(1<<uint(rc.id)) == 0 {
					continue
				}
				// No per-tuple decomposition charge: the JIT-compiled
				// operator bodies consume the shared stream directly,
				// which is exactly the bookkeeping the paper's JIT step
				// exists to avoid ("query indexing for each tuple",
				// Section III).
				need += rc.opCPU(w)
			}
		}
	} else {
		need += c.DeserCPU * w * n * en.copies
		need += en.class.opCPU(w) * n
	}
	return need
}

// consume applies an entry to this slot's operator state. The caller
// has already recorded the entry's watermark against its edge.
func (s *slot) consume(e *Engine, nr *nodeRun, en *entry) {
	switch en.kind {
	case entryHeartbeat:
		return
	case entryState:
		e.mergeState(s, en, true)
		return
	}
	w := e.cfg.TupleWeight * en.scale
	if en.runs != nil {
		s.consumeRuns(e, en, w)
		return
	}
	// Rows are applied row-major — every class and member of row i
	// before row i+1 — so a same-stream self-join probes and buffers in
	// arrival order and every float fold sees one fixed sequence.
	if en.plan.shared {
		plan := en.plan
		off := 0
		for i := 0; i < en.n; i++ {
			bits := en.classBits[i]
			for _, rc := range plan.classes {
				if bits&(1<<uint(rc.id)) == 0 {
					continue
				}
				g := en.groups[off]
				off++
				s.insertClass(e, rc, i, g, w, en)
			}
		}
	} else {
		for i := 0; i < en.n; i++ {
			s.insertClass(e, en.class, i, en.groups[i], w, en)
		}
	}
}

// consumeRuns applies a folded data entry: one state update, one
// processed record and one latency-moment fold per (class, group) run —
// the per-block rather than per-tuple cost structure of the batched hot
// path. The run's latency moments are exact: row i of the tick has
// event time tsBegin + i·tsStep and every row of the entry is absorbed
// at the same instant, so Σlat and Σlat² follow from the integer row
// sums Σi and Σi² carried by the run.
func (s *slot) consumeRuns(e *Engine, en *entry, w float64) {
	base := vtime.Max(en.arriveAt, e.clock.Add(-e.cfg.Tick))
	l0 := float64(base.Sub(en.tsBegin)) // latency of tick row 0, in ns
	st := float64(en.tsStep)
	part := int(s.node)
	for i := range en.runs {
		r := &en.runs[i]
		rc := en.class
		if en.plan.shared {
			rc = en.plan.classes[r.class]
		}
		g := r.group
		m := rc.members[0]
		mult := float64(len(rc.members))
		if int(rc.route[g]) != s.id {
			// Iterator guard: the whole run is stray under this routing
			// epoch. Stray reroutes draw from the engine RNG and the
			// shared network budget, so they stage for the barrier-A
			// fold — one folded event per run. Folded entries only exist
			// in counting mode, where the reroute is weight-only.
			e.stageStray(s, m.q.idx, g, w*mult*float64(r.k), nil, m.side)
			continue
		}
		k := float64(r.k)
		wTot := w * mult
		e.insertRun(s, m.q, m.side, g, wTot*k)
		e.metrics.recordProcessed(part, m.q.idx, wTot*k)
		sl := k*l0 - st*float64(r.si)
		sl2 := k*l0*l0 - 2*l0*st*float64(r.si) + st*st*float64(r.si2)
		if sl < 0 {
			sl = 0 // float residue; true per-row latencies are >= 0
		}
		if sl2 < 0 {
			sl2 = 0
		}
		e.metrics.recordLatencyRun(part, m.q.idx, sl, sl2, wTot, r.k)
	}
}

// insertClass feeds row i of a data entry's block for one route class
// into every member query's window operator — exact state reads the
// row straight from the lanes — guarded by the iterator: a tuple whose
// routing-time assignment does not place its key group on this slot is
// sent back to the source operator for re-partitioning (step 4's guard
// role). The check uses the class's routing-time table, so in-flight
// pre-marker tuples are processed where their state (and its eventual
// extraction) lives.
func (s *slot) insertClass(e *Engine, rc *routeClass, i int, g keyspace.GroupID, w float64, en *entry) {
	lat := vtime.Max(en.arriveAt, e.clock.Add(-e.cfg.Tick)).Sub(en.blk.TS[i])
	if int(rc.assign.Partition(g)) != s.id {
		// Stray reroutes draw from the engine RNG and the shared
		// network budget, so they stage for the barrier-A fold.
		var t Tuple
		en.blk.RowTuple(&t, i, en.plan.laneCols)
		if !e.cfg.ExactWindows {
			m := rc.members[0]
			e.stageStray(s, m.q.idx, g, w*float64(len(rc.members)), &t, m.side)
			return
		}
		for _, m := range rc.members {
			e.stageStray(s, m.q.idx, g, w, &t, m.side)
		}
		return
	}
	part := int(s.node)
	if !e.cfg.ExactWindows {
		// Counting mode: a class's members are interchangeable for
		// state accounting (same stream, key, filter, assignment), so
		// the class representative carries the aggregate weight. This
		// keeps per-tuple work O(classes) instead of O(queries) for
		// workloads with thousands of identical queries.
		m := rc.members[0]
		wTot := w * float64(len(rc.members))
		e.insertRun(s, m.q, m.side, g, wTot)
		e.metrics.recordProcessed(part, m.q.idx, wTot)
		e.metrics.recordLatency(part, m.q.idx, lat, wTot)
		return
	}
	for _, m := range rc.members {
		e.insertRow(s, m.q, m.side, &en.blk, i, g, w)
		e.metrics.recordProcessed(part, m.q.idx, w)
		e.metrics.recordLatency(part, m.q.idx, lat, w)
	}
}

// advanceWatermark recomputes the slot watermark (min over edges) and
// closes exact-mode windows that became safe.
func (s *slot) advanceWatermark(e *Engine) {
	min := vtime.Time(1<<62 - 1)
	for _, wm := range s.edgeWM {
		if wm < min {
			min = wm
		}
	}
	if min > s.wm {
		s.wm = min
		if e.cfg.ExactWindows {
			e.closeExactWindows(s)
		}
	}
}

// completeAlignment runs steps 3–5 of the AQE protocol once markers
// from every upstream edge arrived (step 2 complete):
// JIT-compile the affected operators, extract the window state of key
// groups that moved away, hand it to the iterator which ships it back
// to a source operator, and unblock the edges. Cross-node effects —
// the alignment count, checkpoint capture, extracted-state dispatch,
// JIT telemetry — stage on s.fx for the barrier-A fold.
func (s *slot) completeAlignment(e *Engine, nr *nodeRun) {
	m := s.alignM
	s.alignM = nil
	for i := range s.blocked {
		s.blocked[i] = false
	}
	if m.Epoch <= s.seenEpoch {
		return
	}
	s.seenEpoch = m.Epoch
	s.fx.stage(evtAligned).epoch = m.Epoch

	if m.Kind == MarkerFinalize {
		// Step 5: iterators revert to pass-through; nothing to move.
		return
	}
	if m.Kind == MarkerCheckpoint {
		// Aligned snapshot point: every pre-barrier tuple on every edge
		// has been folded into this slot's state, no post-barrier tuple
		// has. Capture and resume; no state moves, no JIT runs.
		e.stageCheckpointCapture(s, m)
		return
	}
	d := m.Delta
	if d == nil {
		return
	}

	// Step 3: JIT-compile the new operator bodies on this slot — one
	// compilation per query whose group set here changed. Queries are
	// visited in index order: the extraction events staged below fold at
	// barrier A in stage order, and each fold draws from the engine RNG
	// and the tick's shared network budget, so map-order iteration would
	// make delays — and every latency derived from them — differ run to
	// run.
	movedQueries := make([]int, 0, len(d.Moved))
	for qi := range d.Moved {
		movedQueries = append(movedQueries, qi)
	}
	sort.Ints(movedQueries)
	compiles := 0
	for _, qi := range movedQueries {
		moved := d.Moved[qi]
		q := e.queries[qi]
		affected := false
		for _, g := range moved {
			if int(d.OldAssign[qi].Partition(g)) == s.id || int(q.assign.Partition(g)) == s.id {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		compiles++
		// Step 4 (iterator): groups that moved away take their window
		// state back to the source operator for re-partitioning.
		for _, g := range moved {
			if int(d.OldAssign[qi].Partition(g)) == s.id {
				e.extractState(s, nr, qi, g)
			}
			if e.cfg.ExactWindows && int(q.assign.Partition(g)) == s.id {
				// Emission hold only matters for concrete windows;
				// counting mode has nothing to emit.
				s.pendingState[pendKey{qi, g}] = true
			}
		}
	}
	if compiles > 0 {
		d := vtime.Duration(compiles) * e.cfg.Cost.CompileCost
		cost := e.cfg.Cost.CompileCost.Seconds() * float64(compiles)
		e.cluster.CPU(s.node).Take(cost)
		s.busyUntil = vtime.Max(e.clock, s.busyUntil).Add(d)
		e.metrics.recordJIT(int(s.node), compiles, d)
		if e.obs != nil {
			ev := s.fx.stage(evtJIT)
			ev.compiles, ev.dur = compiles, d
		}
	}
}
