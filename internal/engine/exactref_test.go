package engine

import (
	"sort"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// refExact is the exact-window state layer as it was written before the
// flat tables of exact.go: per-key Go maps keyed by (window start, key),
// one heap accumulator per aggregate cell and one []Tuple per join
// (window, key). It is kept only here, as the differential reference
// exact_test.go drives beside the engine. Two deliberate differences
// from that original, both the sliding-join fix the flat layout made: a
// buffered join row is shipped and captured once, from its newest
// window instance, instead of once per window holding it; and a merged
// row re-expands only into the window instances still open at its new
// owner.
type refExact struct {
	e       *Engine // read-only context: queries, streams, key space
	slots   []*refSlot
	emitted [][]float64 // per node, per query
}

type refSlot struct {
	node    int
	wm      vtime.Time
	agg     map[int]map[aggMapKey]*aggAcc
	join    map[int]*[2]map[aggMapKey][]Tuple
	pending map[pendKey]bool
	held    map[pendKey][]refHeld
}

// aggMapKey addresses one window instance of one grouping key.
type aggMapKey struct {
	win vtime.Time
	key uint64
}

// aggAcc is a partial aggregate: SUM(col) with the modelled weight.
type aggAcc struct {
	sum    float64
	weight float64
}

type refHeld struct {
	side int
	t    Tuple
	w    float64
}

func newRefExact(e *Engine) *refExact {
	r := &refExact{e: e, emitted: make([][]float64, e.cfg.Nodes)}
	for i := range r.emitted {
		r.emitted[i] = make([]float64, len(e.queries))
	}
	for _, s := range e.slots {
		r.slots = append(r.slots, &refSlot{
			node:    int(s.node),
			agg:     map[int]map[aggMapKey]*aggAcc{},
			join:    map[int]*[2]map[aggMapKey][]Tuple{},
			pending: map[pendKey]bool{},
			held:    map[pendKey][]refHeld{},
		})
	}
	return r
}

func (r *refExact) joinOf(rs *refSlot, qi int) *[2]map[aggMapKey][]Tuple {
	j := rs.join[qi]
	if j == nil {
		j = &[2]map[aggMapKey][]Tuple{{}, {}}
		rs.join[qi] = j
	}
	return j
}

func (r *refExact) aggOf(rs *refSlot, qi int) map[aggMapKey]*aggAcc {
	a := rs.agg[qi]
	if a == nil {
		a = map[aggMapKey]*aggAcc{}
		rs.agg[qi] = a
	}
	return a
}

func sortAggKeys(keys []aggMapKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].win != keys[j].win {
			return keys[i].win < keys[j].win
		}
		return keys[i].key < keys[j].key
	})
}

// newest is the start of the newest window instance holding ts.
func (r *refExact) newest(qi int, ts vtime.Time) vtime.Time {
	return r.e.queries[qi].spec.Window.WindowsOf(ts)[0]
}

func (r *refExact) insert(si, qi, side int, t Tuple, g keyspace.GroupID, w float64) {
	rs := r.slots[si]
	q := r.e.queries[qi]
	if rs.pending[pendKey{qi, g}] {
		// Parked rows keep the stream's columns only, as the held
		// block does.
		var tt Tuple
		tt.TS = t.TS
		copy(tt.Cols[:r.e.streams[q.spec.Inputs[side].Stream].NumCols], t.Cols[:])
		rs.held[pendKey{qi, g}] = append(rs.held[pendKey{qi, g}], refHeld{side, tt, w})
		return
	}
	key := q.spec.Inputs[side].Key.KeyOf(&t)
	wins := q.spec.Window.WindowsOf(t.TS)
	if q.spec.Kind == OpAggregate {
		agg := r.aggOf(rs, qi)
		v := float64(t.Cols[q.spec.AggCol])
		for _, win := range wins {
			k := aggMapKey{win, key}
			acc := agg[k]
			if acc == nil {
				acc = &aggAcc{}
				agg[k] = acc
			}
			acc.sum += v * w
			acc.weight += w
		}
		return
	}
	st := r.joinOf(rs, qi)
	opp := st[1-side]
	for _, win := range wins {
		k := aggMapKey{win, key}
		if ms := opp[k]; len(ms) > 0 {
			r.emitted[rs.node][qi] += w * float64(len(ms))
		}
		st[side][k] = append(st[side][k], t)
	}
}

func (r *refExact) close(si int) []AggResult {
	rs := r.slots[si]
	var out []AggResult
	for qi := range r.e.queries {
		rng := vtime.Time(r.e.queries[qi].spec.Window.Range)
		if agg := rs.agg[qi]; agg != nil {
			var keys []aggMapKey
			for k := range agg {
				if k.win+rng > rs.wm || rs.pending[pendKey{qi, r.e.space.GroupOf(k.key)}] {
					continue
				}
				keys = append(keys, k)
			}
			sortAggKeys(keys)
			for _, k := range keys {
				acc := agg[k]
				out = append(out, AggResult{Query: qi, Win: k.win, Key: k.key, Sum: acc.sum, Weight: acc.weight})
				r.emitted[rs.node][qi] += acc.weight
				delete(agg, k)
			}
		}
		if st := rs.join[qi]; st != nil {
			for side := range st {
				for k := range st[side] {
					if k.win+rng > rs.wm || rs.pending[pendKey{qi, r.e.space.GroupOf(k.key)}] {
						continue
					}
					delete(st[side], k)
				}
			}
		}
	}
	return out
}

// extract moves (qi, g) out of slot si, as entryState's payload.
func (r *refExact) extract(si, qi int, g keyspace.GroupID) (agg []AggPartial, join [2][]Tuple, weight float64) {
	rs := r.slots[si]
	if a := rs.agg[qi]; a != nil {
		var keys []aggMapKey
		for k := range a {
			if r.e.space.GroupOf(k.key) == g {
				keys = append(keys, k)
			}
		}
		sortAggKeys(keys)
		for _, k := range keys {
			acc := a[k]
			agg = append(agg, AggPartial{Win: k.win, Key: k.key, Sum: acc.sum, Weight: acc.weight})
			weight += acc.weight
			delete(a, k)
		}
	}
	if st := rs.join[qi]; st != nil {
		for side := range st {
			var keys []aggMapKey
			for k := range st[side] {
				if r.e.space.GroupOf(k.key) == g {
					keys = append(keys, k)
				}
			}
			sortAggKeys(keys)
			for _, k := range keys {
				n := 0
				for _, t := range st[side][k] {
					if r.newest(qi, t.TS) == k.win {
						join[side] = append(join[side], t)
						n++
					}
				}
				weight += float64(n)
				delete(st[side], k)
			}
		}
	}
	return agg, join, weight
}

// merge folds a moved payload into slot si and replays its held rows.
func (r *refExact) merge(si, qi int, g keyspace.GroupID, agg []AggPartial, join [2][]Tuple) {
	rs := r.slots[si]
	a := r.aggOf(rs, qi)
	for _, p := range agg {
		k := aggMapKey{p.Win, p.Key}
		acc := a[k]
		if acc == nil {
			acc = &aggAcc{}
			a[k] = acc
		}
		acc.sum += p.Sum
		acc.weight += p.Weight
	}
	q := r.e.queries[qi]
	st := r.joinOf(rs, qi)
	for side := range join {
		for _, t := range join[side] {
			key := q.spec.Inputs[side].Key.KeyOf(&t)
			for _, win := range q.spec.Window.WindowsOf(t.TS) {
				if win+vtime.Time(q.spec.Window.Range) <= rs.wm {
					continue
				}
				st[side][aggMapKey{win, key}] = append(st[side][aggMapKey{win, key}], t)
			}
		}
	}
	k := pendKey{qi, g}
	delete(rs.pending, k)
	held := rs.held[k]
	delete(rs.held, k)
	for _, h := range held {
		r.insert(si, qi, h.side, h.t, g, h.w)
	}
}

// capture returns slot si's checkpoint fragments, one per (query,
// group), payloads unsorted.
func (r *refExact) capture(si int) []CkptGroup {
	rs := r.slots[si]
	frags := map[pendKey]*CkptGroup{}
	grp := func(qi int, key uint64) *CkptGroup {
		k := pendKey{qi, r.e.space.GroupOf(key)}
		if frags[k] == nil {
			frags[k] = &CkptGroup{Query: qi, Group: k.group}
		}
		return frags[k]
	}
	for qi, a := range rs.agg {
		for k, acc := range a {
			f := grp(qi, k.key)
			f.Agg = append(f.Agg, AggPartial{Win: k.win, Key: k.key, Sum: acc.sum, Weight: acc.weight})
		}
	}
	for qi, st := range rs.join {
		for side := range st {
			for k, buf := range st[side] {
				for _, t := range buf {
					if r.newest(qi, t.TS) == k.win {
						f := grp(qi, k.key)
						f.Join[side] = append(f.Join[side], t)
					}
				}
			}
		}
	}
	var out []CkptGroup
	for _, f := range frags {
		out = append(out, *f)
	}
	return out
}

// destroy tears down node n's state and returns its modelled bytes,
// folded in the order destroyNodeState always used.
func (r *refExact) destroy(n int) (float64, map[pendKey]bool) {
	var lost float64
	dead := map[pendKey]bool{}
	for _, rs := range r.slots {
		if rs.node != n {
			continue
		}
		for qi := range r.e.queries {
			bpt := r.e.streams[r.e.queries[qi].spec.Inputs[0].Stream].BytesPerTuple
			if a := rs.agg[qi]; a != nil {
				var keys []aggMapKey
				for k := range a {
					keys = append(keys, k)
				}
				sortAggKeys(keys)
				for _, k := range keys {
					lost += a[k].weight * bpt
					dead[pendKey{qi, r.e.space.GroupOf(k.key)}] = true
				}
			}
			if st := rs.join[qi]; st != nil {
				for side := range st {
					var keys []aggMapKey
					for k := range st[side] {
						keys = append(keys, k)
					}
					sortAggKeys(keys)
					for _, k := range keys {
						lost += float64(len(st[side][k])) * bpt
						dead[pendKey{qi, r.e.space.GroupOf(k.key)}] = true
					}
				}
			}
		}
		rs.agg = map[int]map[aggMapKey]*aggAcc{}
		rs.join = map[int]*[2]map[aggMapKey][]Tuple{}
		var heldKeys []pendKey
		for k := range rs.held {
			heldKeys = append(heldKeys, k)
		}
		sort.Slice(heldKeys, func(i, j int) bool {
			if heldKeys[i].query != heldKeys[j].query {
				return heldKeys[i].query < heldKeys[j].query
			}
			return heldKeys[i].group < heldKeys[j].group
		})
		for _, k := range heldKeys {
			bpt := r.e.streams[r.e.queries[k.query].spec.Inputs[0].Stream].BytesPerTuple
			var w float64
			for _, h := range rs.held[k] {
				w += h.w
			}
			lost += w * bpt
		}
		rs.held = map[pendKey][]refHeld{}
	}
	return lost, dead
}
