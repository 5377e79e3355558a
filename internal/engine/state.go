package engine

import (
	"math"
	"sort"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file holds the two window-state backends.
//
// Counting mode (the default for benchmarks) tracks, per (query, side,
// key group), an exponentially-decayed arrival rate whose product with
// the window range estimates the in-window state size — exactly the
// quantity the AQE protocol must ship when a key group moves (Fig. 9).
//
// Exact mode maintains concrete window state — real sums, real join
// buffers — and emits verifiable results; it is what `sasparctl serve`
// runs, and what lets correctness tests prove that live
// re-partitioning never changes query output. Its layout lives in
// exact.go.

// qCounting is a query's counting-mode state.
type qCounting struct {
	rate [][]float64    // per side, per group: EWMA modelled tuples/sec
	last [][]vtime.Time // per side, per group: last update
}

func newQCounting(sides, groups int) *qCounting {
	c := &qCounting{rate: make([][]float64, sides), last: make([][]vtime.Time, sides)}
	for s := range c.rate {
		c.rate[s] = make([]float64, groups)
		c.last[s] = make([]vtime.Time, groups)
	}
	return c
}

// decayTo brings the EWMA for (side, group) forward to now.
func (c *qCounting) decayTo(side int, g keyspace.GroupID, now vtime.Time, tau float64) {
	dt := now.Sub(c.last[side][g]).Seconds()
	if dt > 0 {
		c.rate[side][g] *= math.Exp(-dt / tau)
		c.last[side][g] = now
	}
}

// expMemo is a single-entry cache of the last decay factor. In steady
// state every live (side, group) cell of a slot decays by exactly one
// tick with the query's fixed tau, so the same (dt, tau) pair recurs on
// every call; the memo returns the identical math.Exp result without
// re-evaluating it. Each slot owns one, so parallel shard workers never
// share a cell.
type expMemo struct{ dt, tau, v float64 }

func (mz *expMemo) exp(dt, tau float64) float64 {
	if mz.dt == dt && mz.tau == tau && mz.v != 0 {
		return mz.v
	}
	v := math.Exp(-dt / tau)
	*mz = expMemo{dt: dt, tau: tau, v: v}
	return v
}

// decayToMemo is decayTo with the slot's decay-factor memo on the hot
// path; bit-identical results, since the memo caches exact values.
func (c *qCounting) decayToMemo(side int, g keyspace.GroupID, now vtime.Time, tau float64, mz *expMemo) {
	dt := now.Sub(c.last[side][g]).Seconds()
	if dt > 0 {
		c.rate[side][g] *= mz.exp(dt, tau)
		c.last[side][g] = now
	}
}

// AggPartial is the wire form of a partial aggregate moved between
// slots during re-partitioning — and the unit checkpoints capture and
// restore (see checkpoint.go), which is why it is exported and
// JSON-serializable.
type AggPartial struct {
	Win    vtime.Time
	Key    uint64
	Sum    float64
	Weight float64
}

// AggResult is one emitted window result of an exact-mode aggregation.
type AggResult struct {
	Query  int
	Win    vtime.Time
	Key    uint64
	Sum    float64
	Weight float64
}

// SortAggResults orders results deterministically for comparison.
func SortAggResults(rs []AggResult) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		return a.Key < b.Key
	})
}

// insertRun folds a whole run's weight into a query's counting-mode
// window state in one update: one decay plus one rate bump per (query,
// group) run, however many rows the run carried. wk is the run's total
// modelled weight (per-row weight × rows).
func (e *Engine) insertRun(s *slot, q *queryInst, side int, g keyspace.GroupID, wk float64) {
	c := e.qcount[q.idx]
	tau := q.spec.Window.Range.Seconds()
	c.decayToMemo(side, g, e.clock, tau, &s.decayMemo)
	c.rate[side][g] += wk / tau
}

// insert feeds one tuple into a query's window state on slot s.
func (e *Engine) insert(s *slot, q *queryInst, side int, t *Tuple, g keyspace.GroupID, w float64) {
	if !e.cfg.ExactWindows {
		c := e.qcount[q.idx]
		tau := q.spec.Window.Range.Seconds()
		c.decayToMemo(side, g, e.clock, tau, &s.decayMemo)
		c.rate[side][g] += w / tau
		return
	}

	// Tuple-at-a-time callers (stray reroutes) go through a one-row
	// block, the form the exact state reads.
	cols := e.streams[q.spec.Inputs[side].Stream].NumCols
	s.one.Resize(0, cols)
	s.one.AppendRow(t, cols, w)
	e.insertRow(s, q, side, &s.one, 0, g, w)
}

// extractState implements the local half of the iterator's state
// movement (step 4): the window state of query qi's key group g leaves
// slot s into a fresh entry, which is staged for barrier A. The
// network legs and the courier-source RNG draw happen in
// dispatchExtract, at the barrier, in canonical slot order — see the
// second leg ("tuples sent back to the source operator") of Fig. 9.
// Exact state extracts in (window, key) order (see extractExact), so
// en.stWeight (a float sum) and the shipped payload are a pure function
// of the state.
func (e *Engine) extractState(s *slot, nr *nodeRun, qi int, g keyspace.GroupID) {
	q := e.queries[qi]
	en := nr.newEntry()
	en.kind = entryState
	en.stQuery = qi
	en.stGroup = g
	en.epoch = e.epoch

	if e.cfg.ExactWindows {
		e.extractExact(s, en, qi, g)
	} else {
		// Counting cells are engine-global; safe here because extraction
		// only happens on reconfiguration ticks, which the turbulence
		// carve-out runs single-worker (see tickTurbulent).
		c := e.qcount[qi]
		tau := q.spec.Window.Range.Seconds()
		for side := range c.rate {
			c.decayTo(side, g, e.clock, tau)
			en.stWeight += c.rate[side][g] * tau // in-window state estimate
			c.rate[side][g] = 0
		}
	}

	if !e.cfg.ExactWindows && en.stWeight == 0 {
		// Nothing to move (e.g. a non-representative member of a route
		// class in counting mode, whose state is carried by the
		// representative). Exact mode always ships, even empty, so the
		// new owner's emission hold clears.
		nr.recycle(en)
		return
	}
	if e.staged != nil {
		// Checkpoint-staged migration: the destination already holds the
		// snapshot copy of this cell, so only the since-barrier residual
		// travels. The discount ages the staged weight with the same
		// decay rule RestoreGroup uses (see stagedDiscount); the merge
		// still folds the full stWeight, so state values are identical to
		// pause-and-transfer.
		en.stStagedW = e.stagedDiscount(qi, g, en.stWeight, q.spec.Window.Range.Seconds())
	}
	s.fx.stage(evtExtract).en = en
}

// mergeState absorbs a moved key group's state at its new owner and
// clears the emission hold. With staged=true (the slot phase) the
// checkpoint fold and the outstanding-state decrement are deferred to
// barrier A; staged=false (checkpoint restore, which runs between
// ticks) applies both directly.
func (e *Engine) mergeState(s *slot, en *entry, staged bool) {
	qi := en.stQuery
	if e.cfg.ExactWindows {
		e.mergeExact(s, en)
	} else {
		c := e.qcount[qi]
		tau := e.queries[qi].spec.Window.Range.Seconds()
		c.decayTo(0, en.stGroup, e.clock, tau)
		c.rate[0][en.stGroup] += en.stWeight / tau
	}
	k := pendKey{qi, en.stGroup}
	// An in-flight checkpoint that saw this group pending at alignment
	// completes its capture from the state that just landed.
	if staged {
		if ck := e.ckpt; ck != nil && ck.active {
			ev := s.fx.stage(evtCkptMerge)
			ev.key = k
			// Copy the payload: the entry is recycled before barrier A.
			ev.agg = append([]AggPartial(nil), en.stAgg...)
			ev.join[0] = append([]Tuple(nil), en.stJoin[0]...)
			ev.join[1] = append([]Tuple(nil), en.stJoin[1]...)
		}
		s.fx.outstanding--
	} else {
		e.ckptMergeHook(k, en)
		e.outstandingState--
	}
	delete(s.pendingState, k)
	// Replay tuples that arrived for this group while its state was in
	// flight, now in arrival order against the complete state.
	if hb := s.held[k]; hb != nil && hb.blk.Len() > 0 {
		delete(s.held, k)
		q := e.queries[qi]
		for i := 0; i < hb.blk.Len(); i++ {
			e.insertRow(s, q, int(hb.sides[i]), &hb.blk, i, en.stGroup, hb.blk.W[i])
		}
	}
}

// heldBlock parks the tuples of one (query, group) whose moved window
// state is in flight: a columnar block whose weight lane carries each
// row's modelled weight, with the input side per row alongside.
type heldBlock struct {
	blk   TupleBlock
	sides []uint8
}

// rows reports the parked row count; nil-safe so callers can probe a
// map entry that may already have been replayed and deleted.
func (hb *heldBlock) rows() int {
	if hb == nil {
		return 0
	}
	return hb.blk.Len()
}

// weight sums the parked rows' modelled weights.
func (hb *heldBlock) weight() float64 {
	var w float64
	for _, x := range hb.blk.W {
		w += x
	}
	return w
}

// stageStray records the iterator guard's reroute of a stray tuple (or,
// with t == nil, a folded run of identical-fate rows whose combined
// weight is w): data that reached a slot which no longer owns its key
// group under the current epoch. The actual reroute (RNG courier draw,
// network legs, insert at the true owner — which may live on another
// node) runs at barrier A in dispatchStray. A nil t stages a zero
// tuple, which is sufficient in counting mode — the reroute is
// weight-only there; exact mode always stages concrete tuples.
func (e *Engine) stageStray(s *slot, qi int, g keyspace.GroupID, w float64, t *Tuple, side int) {
	ev := s.fx.stage(evtStray)
	ev.qi, ev.g, ev.w, ev.side = qi, g, w, side
	if t != nil {
		ev.t = *t
	}
}
