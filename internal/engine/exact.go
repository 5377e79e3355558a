package engine

import (
	"cmp"
	"math/bits"
	"slices"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file is the exact-mode window state: concrete sums and join
// buffers, laid out in flat lanes like the rest of the data plane. A
// slot holds, per query, one winTable per open window
// instance in window-start order. A window's aggregation is an
// open-addressed key → index table over flat key/sum/weight lanes; a
// join side is a key → row-count table (all the probe reads) plus an
// append-only column run of the rows whose newest window instance this
// is, so every buffered row is stored once however many windows it
// belongs to. Closed windows, their tables and their run chunks go
// back to per-slot free lists, so a steady-state tick allocates
// nothing here.

// keyTable maps grouping keys to dense indexes: linear probing over a
// power-of-two array of index+1 (0 marks an empty slot), with the keys
// themselves in a dense lane in insertion order. Per-key values live
// in lanes parallel to keys, owned by the caller.
type keyTable struct {
	slot  []int32
	keys  []uint64
	shift uint8 // 64 − log2(len(slot))
}

func (t *keyTable) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns k's index, or -1.
func (t *keyTable) find(k uint64) int {
	if len(t.keys) == 0 {
		return -1
	}
	mask := len(t.slot) - 1
	for h := t.home(k); ; h = (h + 1) & mask {
		ix := t.slot[h]
		if ix == 0 {
			return -1
		}
		if t.keys[ix-1] == k {
			return int(ix) - 1
		}
	}
}

// add returns k's index, appending k when absent; added reports which.
func (t *keyTable) add(k uint64) (i int, added bool) {
	if 2*(len(t.keys)+1) > len(t.slot) {
		t.rehash(max(16, 2*len(t.slot)))
	}
	mask := len(t.slot) - 1
	for h := t.home(k); ; h = (h + 1) & mask {
		ix := t.slot[h]
		if ix == 0 {
			t.keys = append(t.keys, k)
			t.slot[h] = int32(len(t.keys))
			return len(t.keys) - 1, true
		}
		if t.keys[ix-1] == k {
			return int(ix) - 1, false
		}
	}
}

// rehash rebuilds the probe array at n slots (a power of two) from the
// key lane — after growth, or after a caller compacted the lanes.
func (t *keyTable) rehash(n int) {
	if cap(t.slot) >= n {
		t.slot = t.slot[:n]
		clear(t.slot)
	} else {
		t.slot = make([]int32, n)
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for i, k := range t.keys {
		h := t.home(k)
		for t.slot[h] != 0 {
			h = (h + 1) & mask
		}
		t.slot[h] = int32(i + 1)
	}
}

func (t *keyTable) reset() {
	clear(t.slot)
	t.keys = t.keys[:0]
}

// runSlab is the int64 count of one join-run chunk (64 KB). A chunk
// holds runSlab/lanes rows, lane-major, so every stream width shares
// one free list.
const runSlab = 1 << 13

// joinRun is an append-only column run of buffered join rows: per
// chunk a TS lane, a key lane and the stream's column lanes back to
// back. Growth adds a chunk and never copies a row; a row costs
// 8·(NumCols+2) bytes.
type joinRun struct {
	chunks [][]int64
	per    int // rows per chunk
	cols   int
	n      int
}

func (r *joinRun) at(i int) (ch []int64, o int) {
	c := i / r.per
	return r.chunks[c], i - c*r.per
}

func (r *joinRun) key(i int) uint64 {
	ch, o := r.at(i)
	return uint64(ch[r.per+o])
}

// slotFor readies the run for one more row of a cols-wide stream and
// returns the chunk and offset to write it at.
func (r *joinRun) slotFor(s *slot, cols int) ([]int64, int) {
	if r.n == 0 && len(r.chunks) == 0 {
		r.cols, r.per = cols, runSlab/(cols+2)
	}
	o := r.n - (len(r.chunks)-1)*r.per
	if len(r.chunks) == 0 || o == r.per {
		r.chunks = append(r.chunks, s.slab())
		o = 0
	}
	r.n++
	return r.chunks[len(r.chunks)-1], o
}

// push appends row i of b over cols lanes.
func (r *joinRun) push(s *slot, key uint64, b *TupleBlock, i, cols int) {
	ch, o := r.slotFor(s, cols)
	ch[o] = int64(b.TS[i])
	ch[r.per+o] = int64(key)
	for c := 0; c < cols; c++ {
		ch[(c+2)*r.per+o] = b.Col[c][i]
	}
}

// pushTuple appends t over cols lanes.
func (r *joinRun) pushTuple(s *slot, key uint64, t *Tuple, cols int) {
	ch, o := r.slotFor(s, cols)
	ch[o] = int64(t.TS)
	ch[r.per+o] = int64(key)
	for c := 0; c < cols; c++ {
		ch[(c+2)*r.per+o] = t.Cols[c]
	}
}

// tuple gathers row i; columns past the stream's width are zero.
func (r *joinRun) tuple(i int) Tuple {
	ch, o := r.at(i)
	t := Tuple{TS: vtime.Time(ch[o])}
	for c := 0; c < r.cols; c++ {
		t.Cols[c] = ch[(c+2)*r.per+o]
	}
	return t
}

// retain keeps the rows whose key satisfies keep, in order, and
// returns the chunks no longer needed to the slot.
func (r *joinRun) retain(s *slot, keep func(uint64) bool) {
	if len(r.chunks) == 0 {
		return
	}
	j := 0
	for i := 0; i < r.n; i++ {
		if !keep(r.key(i)) {
			continue
		}
		if i != j {
			src, so := r.at(i)
			dst, do := r.at(j)
			for l := 0; l < r.cols+2; l++ {
				dst[l*r.per+do] = src[l*r.per+so]
			}
		}
		j++
	}
	r.n = j
	need := (j + r.per - 1) / r.per
	for _, ch := range r.chunks[need:] {
		s.slabFree = append(s.slabFree, ch)
	}
	clear(r.chunks[need:])
	r.chunks = r.chunks[:need]
}

func (r *joinRun) release(s *slot) {
	s.slabFree = append(s.slabFree, r.chunks...)
	clear(r.chunks)
	r.chunks, r.n = r.chunks[:0], 0
}

// joinSide is one input side of a join window instance.
type joinSide struct {
	keys keyTable
	cnt  []int32 // rows of each key in this window instance
	run  joinRun // rows whose newest window instance this is
}

func (js *joinSide) count(k uint64) int32 {
	if i := js.keys.find(k); i >= 0 {
		return js.cnt[i]
	}
	return 0
}

func (js *joinSide) bump(k uint64) {
	i, added := js.keys.add(k)
	if added {
		js.cnt = append(js.cnt, 0)
	}
	js.cnt[i]++
}

// retainKeys drops the counts and rows of every key keep rejects.
func (js *joinSide) retainKeys(s *slot, keep func(uint64) bool) {
	j := 0
	for i, k := range js.keys.keys {
		if keep(k) {
			js.keys.keys[j], js.cnt[j] = k, js.cnt[i]
			j++
		}
	}
	js.keys.keys, js.cnt = js.keys.keys[:j], js.cnt[:j]
	js.keys.rehash(len(js.keys.slot))
	js.run.retain(s, keep)
}

func (js *joinSide) reset(s *slot) {
	js.keys.reset()
	js.cnt = js.cnt[:0]
	js.run.release(s)
}

// winTable is one open window instance of one query on one slot.
type winTable struct {
	start vtime.Time

	agg    keyTable // aggregation: grouping key → lane index
	sum    []float64
	weight []float64

	join [2]joinSide
}

func (wt *winTable) fold(k uint64, sum, weight float64) {
	i, added := wt.agg.add(k)
	if added {
		wt.sum = append(wt.sum, 0)
		wt.weight = append(wt.weight, 0)
	}
	wt.sum[i] += sum
	wt.weight[i] += weight
}

// retainAgg drops the aggregation cells of every key keep rejects.
func (wt *winTable) retainAgg(keep func(uint64) bool) {
	j := 0
	for i, k := range wt.agg.keys {
		if keep(k) {
			wt.agg.keys[j], wt.sum[j], wt.weight[j] = k, wt.sum[i], wt.weight[i]
			j++
		}
	}
	wt.agg.keys, wt.sum, wt.weight = wt.agg.keys[:j], wt.sum[:j], wt.weight[:j]
	wt.agg.rehash(len(wt.agg.slot))
}

func (wt *winTable) empty() bool {
	return len(wt.agg.keys) == 0 && len(wt.join[0].keys.keys) == 0 && len(wt.join[1].keys.keys) == 0
}

// exactQuery is one query's window state on one slot: its open window
// instances in start order. Late rows may open an instance behind the
// newest, so lookups scan back from the end.
type exactQuery struct {
	wins []*winTable
}

// window returns the instance starting at start, opening it from the
// slot's free list when absent.
func (xq *exactQuery) window(s *slot, start vtime.Time) *winTable {
	i := len(xq.wins)
	for i > 0 && xq.wins[i-1].start > start {
		i--
	}
	if i > 0 && xq.wins[i-1].start == start {
		return xq.wins[i-1]
	}
	var wt *winTable
	if n := len(s.winFree); n > 0 {
		wt, s.winFree = s.winFree[n-1], s.winFree[:n-1]
	} else {
		wt = &winTable{}
	}
	wt.start = start
	xq.wins = slices.Insert(xq.wins, i, wt)
	return wt
}

// recycle returns a window instance and its run chunks to the slot.
func (s *slot) recycle(wt *winTable) {
	wt.agg.reset()
	wt.sum, wt.weight = wt.sum[:0], wt.weight[:0]
	wt.join[0].reset(s)
	wt.join[1].reset(s)
	s.winFree = append(s.winFree, wt)
}

// slab hands out one join-run chunk.
func (s *slot) slab() []int64 {
	if n := len(s.slabFree); n > 0 {
		ch := s.slabFree[n-1]
		s.slabFree = s.slabFree[:n-1]
		return ch
	}
	return make([]int64, runSlab)
}

// exactQuery returns slot s's state for query qi, growing the
// per-query slice for queries added since.
func (s *slot) exactQuery(qi int) *exactQuery {
	if qi >= len(s.exact) {
		s.exact = append(s.exact, make([]exactQuery, qi+1-len(s.exact))...)
	}
	return &s.exact[qi]
}

// sweep recycles the window instances done reports true for, keeping
// the rest in order.
func (xq *exactQuery) sweep(s *slot, done func(*winTable) bool) {
	open := 0
	for _, wt := range xq.wins {
		if done(wt) {
			s.recycle(wt)
			continue
		}
		xq.wins[open] = wt
		open++
	}
	clear(xq.wins[open:])
	xq.wins = xq.wins[:open]
}

// dropExact recycles every window of query qi on slot s.
func (s *slot) dropExact(qi int) {
	if qi < len(s.exact) {
		s.exact[qi].sweep(s, func(*winTable) bool { return true })
	}
}

// pendingFor reports whether any group of query qi awaits moved-in
// state on slot s.
func (s *slot) pendingFor(qi int) bool {
	for k := range s.pendingState {
		if k.query == qi {
			return true
		}
	}
	return false
}

// keyIdx pairs a table key with its lane index.
type keyIdx struct {
	key uint64
	idx int32
}

// sortedCells returns the (key, lane index) pairs of t whose key keep
// accepts (nil accepts all), in key order, in the slot's scratch. Keys
// are unique per table, so the order is the one sorting the key lane
// gives; it comes from an LSD radix pass over just the key bytes that
// differ, two passes for keys under 2^16 — no comparisons, and no hash
// probe per key afterwards.
func (s *slot) sortedCells(t *keyTable, keep func(uint64) bool) []keyIdx {
	a := s.cells[:0]
	lo, hi := ^uint64(0), uint64(0) // AND and OR of the kept keys
	for i, k := range t.keys {
		if keep == nil || keep(k) {
			a = append(a, keyIdx{k, int32(i)})
			lo &= k
			hi |= k
		}
	}
	if len(a) < 64 {
		slices.SortFunc(a, func(x, y keyIdx) int { return cmp.Compare(x.key, y.key) })
		s.cells = a
		return a
	}
	tmp := slices.Grow(s.cellsTmp[:0], len(a))[:len(a)]
	for shift := 0; shift < 64; shift += 8 {
		if (lo^hi)>>shift&0xff == 0 {
			continue // every key has the same byte here
		}
		var pos [256]int
		for _, c := range a {
			pos[c.key>>shift&0xff]++
		}
		at := 0
		for d, n := range pos {
			pos[d], at = at, at+n
		}
		for _, c := range a {
			d := c.key >> shift & 0xff
			tmp[pos[d]] = c
			pos[d]++
		}
		a, tmp = tmp, a
	}
	s.cells, s.cellsTmp = a, tmp
	return a
}

// insertRow feeds row i of block b into query q's window state on
// slot s: a moved-in group whose state is still in flight parks the
// row; otherwise the row folds into (aggregation) or probes and then
// buffers into (join) every window instance containing it.
func (e *Engine) insertRow(s *slot, q *queryInst, side int, b *TupleBlock, i int, g keyspace.GroupID, w float64) {
	in := &q.spec.Inputs[side]
	cols := e.streams[in.Stream].NumCols
	// A moved-in key group whose state is still in flight must not be
	// probed or folded yet: a join row would miss matches against the
	// buffered state, an aggregate would emit before merging. Hold the
	// row; mergeState replays it.
	if len(s.pendingState) > 0 && s.pendingState[pendKey{q.idx, g}] {
		if s.held == nil {
			s.held = map[pendKey]*heldBlock{}
		}
		k := pendKey{q.idx, g}
		hb := s.held[k]
		if hb == nil {
			hb = &heldBlock{}
			s.held[k] = hb
		}
		hb.blk.appendRowFrom(b, i, cols, w)
		hb.sides = append(hb.sides, uint8(side))
		return
	}

	key := in.Key.keyAt(b, i)
	newest, n := q.spec.Window.span(b.TS[i])
	slide := vtime.Time(q.spec.Window.Slide)
	xq := s.exactQuery(q.idx)
	if q.spec.Kind == OpAggregate {
		var v float64
		if c := q.spec.AggCol; c < cols {
			v = float64(b.Col[c][i])
		}
		for k := 0; k < n; k++ {
			xq.window(s, newest-vtime.Time(k)*slide).fold(key, v*w, w)
		}
		return
	}
	// Join: per window instance, probe the opposite side, then count
	// the row in; the row itself is buffered once, with its newest
	// instance.
	for k := 0; k < n; k++ {
		wt := xq.window(s, newest-vtime.Time(k)*slide)
		if c := wt.join[1-side].count(key); c > 0 {
			e.metrics.recordEmitted(int(s.node), q.idx, w*float64(c))
		}
		wt.join[side].bump(key)
		if k == 0 {
			wt.join[side].run.push(s, key, b, i, cols)
		}
	}
}

// closeExactWindows emits every window whose end passed the slot
// watermark, unless its key group is awaiting moved-in state: per
// query in index order, per window in start order, per key in key
// order — the (window, key) order the result log and the per-result
// metric adds have always had, a pure function of the window contents.
// Keys of pending groups stay behind until the group clears.
func (e *Engine) closeExactWindows(s *slot) {
	for qi := range s.exact {
		xq := &s.exact[qi]
		if len(xq.wins) == 0 {
			continue
		}
		r := vtime.Time(e.queries[qi].spec.Window.Range)
		var keep func(uint64) bool // keys held back by a pending group
		if len(s.pendingState) > 0 && s.pendingFor(qi) {
			keep = func(k uint64) bool { return s.pendingState[pendKey{qi, e.space.GroupOf(k)}] }
		}
		xq.sweep(s, func(wt *winTable) bool {
			if wt.start+r > s.wm {
				return false
			}
			e.closeWindow(s, qi, wt, keep)
			return wt.empty()
		})
	}
}

// closeWindow emits one closing window instance's aggregates and drops
// its join state, except for the keys held (held may be nil).
func (e *Engine) closeWindow(s *slot, qi int, wt *winTable, held func(uint64) bool) {
	var emit func(uint64) bool
	if held != nil {
		emit = func(k uint64) bool { return !held(k) }
	}
	if len(wt.agg.keys) > 0 {
		for _, c := range s.sortedCells(&wt.agg, emit) {
			s.fx.results = append(s.fx.results, AggResult{Query: qi, Win: wt.start, Key: c.key, Sum: wt.sum[c.idx], Weight: wt.weight[c.idx]})
			e.metrics.recordEmitted(int(s.node), qi, wt.weight[c.idx])
		}
		if held == nil {
			wt.agg.reset()
			wt.sum, wt.weight = wt.sum[:0], wt.weight[:0]
		} else {
			wt.retainAgg(held)
		}
	}
	for side := range wt.join {
		js := &wt.join[side]
		if held == nil {
			js.reset(s)
		} else {
			js.retainKeys(s, held)
		}
	}
}

// extractExact moves query qi's key group g out of slot s into en:
// aggregate partials in (window, key) order, then each join side's
// buffered rows — each row once, from its newest window instance, in
// (window, key, arrival) order. en.stWeight folds in that order.
func (e *Engine) extractExact(s *slot, en *entry, qi int, g keyspace.GroupID) {
	if qi >= len(s.exact) {
		return
	}
	xq := &s.exact[qi]
	inG := func(k uint64) bool { return e.space.GroupOf(k) == g }
	notG := func(k uint64) bool { return e.space.GroupOf(k) != g }
	for _, wt := range xq.wins {
		cells := s.sortedCells(&wt.agg, inG)
		if len(cells) == 0 {
			continue
		}
		for _, c := range cells {
			en.stAgg = append(en.stAgg, AggPartial{Win: wt.start, Key: c.key, Sum: wt.sum[c.idx], Weight: wt.weight[c.idx]})
			en.stWeight += wt.weight[c.idx]
		}
		wt.retainAgg(notG)
	}
	for side := range en.stJoin {
		for _, wt := range xq.wins {
			js := &wt.join[side]
			if !slices.ContainsFunc(js.keys.keys, inG) {
				continue
			}
			rows := s.rowScratch[:0]
			for i := 0; i < js.run.n; i++ {
				if inG(js.run.key(i)) {
					rows = append(rows, int32(i))
				}
			}
			slices.SortStableFunc(rows, func(a, b int32) int {
				return cmp.Compare(js.run.key(int(a)), js.run.key(int(b)))
			})
			for _, i := range rows {
				en.stJoin[side] = append(en.stJoin[side], js.run.tuple(int(i)))
			}
			en.stWeight += float64(len(rows))
			s.rowScratch = rows
			js.retainKeys(s, notG)
		}
	}
	xq.sweep(s, (*winTable).empty)
}

// mergeExact folds a moved group's partials and buffered rows into
// slot s. Partials fold into their window even if it already closed
// here, so the next close still emits them. Each row is counted into
// every window instance containing it that is still open here, and
// buffered with the newest of those: a closed instance has nothing
// left to match, as in a run where the group never moved.
func (e *Engine) mergeExact(s *slot, en *entry) {
	q := e.queries[en.stQuery]
	xq := s.exactQuery(en.stQuery)
	for _, p := range en.stAgg {
		xq.window(s, p.Win).fold(p.Key, p.Sum, p.Weight)
	}
	slide, rng := vtime.Time(q.spec.Window.Slide), vtime.Time(q.spec.Window.Range)
	for side := range en.stJoin {
		if len(en.stJoin[side]) == 0 {
			continue
		}
		in := &q.spec.Inputs[side]
		cols := e.streams[in.Stream].NumCols
		for i := range en.stJoin[side] {
			t := &en.stJoin[side][i]
			key := in.Key.KeyOf(t)
			newest, n := q.spec.Window.span(t.TS)
			for k := 0; k < n; k++ {
				start := newest - vtime.Time(k)*slide
				if start+rng <= s.wm {
					break // this and every older instance closed here
				}
				wt := xq.window(s, start)
				wt.join[side].bump(key)
				if k == 0 {
					wt.join[side].run.pushTuple(s, key, t, cols)
				}
			}
		}
	}
}

// captureExact copies slot s's window state into per-(query, group)
// checkpoint fragments: every aggregate partial, and every buffered
// join row once.
func (e *Engine) captureExact(s *slot) []CkptGroup {
	var frags []CkptGroup
	idx := map[pendKey]int{}
	grp := func(qi int, k uint64) *CkptGroup {
		pk := pendKey{qi, e.space.GroupOf(k)}
		i, ok := idx[pk]
		if !ok {
			i = len(frags)
			idx[pk] = i
			frags = append(frags, CkptGroup{Query: qi, Group: pk.group})
		}
		return &frags[i]
	}
	for qi := range s.exact {
		for _, wt := range s.exact[qi].wins {
			for j, k := range wt.agg.keys {
				f := grp(qi, k)
				f.Agg = append(f.Agg, AggPartial{Win: wt.start, Key: k, Sum: wt.sum[j], Weight: wt.weight[j]})
			}
			for side := range wt.join {
				run := &wt.join[side].run
				for i := 0; i < run.n; i++ {
					f := grp(qi, run.key(i))
					f.Join[side] = append(f.Join[side], run.tuple(i))
				}
			}
		}
	}
	return frags
}

// destroyExact tears down slot s's window state and returns its
// modelled bytes: per query in index order, aggregates then each join
// side in (window, key) order, so the float total is a pure function
// of the state. Every destroyed cell is recorded for restore.
func (e *Engine) destroyExact(s *slot) float64 {
	var lost float64
	for qi := range s.exact {
		wins := s.exact[qi].wins
		if len(wins) == 0 {
			continue
		}
		bpt := e.streams[e.queries[qi].spec.Inputs[0].Stream].BytesPerTuple
		for _, wt := range wins {
			for _, c := range s.sortedCells(&wt.agg, nil) {
				lost += wt.weight[c.idx] * bpt
				e.markStateDestroyed(pendKey{qi, e.space.GroupOf(c.key)})
			}
		}
		for side := 0; side < 2; side++ {
			for _, wt := range wins {
				js := &wt.join[side]
				for _, c := range s.sortedCells(&js.keys, nil) {
					lost += float64(js.cnt[c.idx]) * bpt
					e.markStateDestroyed(pendKey{qi, e.space.GroupOf(c.key)})
				}
			}
		}
	}
	s.exact = nil
	return lost
}
