package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// The tests in this file hold the flat exact-window state of exact.go
// to the map-based reference of exactref_test.go: both layers take the
// same sequence of inserts, window closes, extractions, merges,
// captures, restores and node teardowns, and after every step they
// must agree on the emitted results (entry for entry, in order), the
// emitted metric, extracted payloads and weights, capture fragments,
// lost bytes, parked rows, and every live cell.

// exactFixture is an engine whose queries cover every window shape
// the state layer distinguishes: tumbling and sliding aggregations,
// tumbling and sliding joins over streams of different widths (one on
// a two-column key), and a sliding same-stream self-join whose range
// is not a multiple of its slide.
func exactFixture(tb testing.TB) *Engine {
	tb.Helper()
	cfg := lightConfig()
	wide := testStream("b", 16)
	wide.NumCols, wide.BytesPerTuple = 5, 80
	sec := vtime.Second
	join := func(id string, key KeySpec, a, b StreamID, w WindowSpec) QuerySpec {
		return QuerySpec{ID: id, Kind: OpJoin, Window: w,
			Inputs: []Input{{Stream: a, Key: key}, {Stream: b, Key: key}}}
	}
	qs := []QuerySpec{
		aggQuery("agg-tumble", 0),
		{ID: "agg-slide", Kind: OpAggregate, Inputs: []Input{{Stream: 1, Key: KeySpec{1}}},
			Window: WindowSpec{Range: 3 * sec, Slide: sec}, AggCol: 4},
		join("join-tumble", KeySpec{0}, 0, 1, WindowSpec{Range: sec, Slide: sec}),
		join("join-slide", KeySpec{0, 1}, 0, 1, WindowSpec{Range: 2 * sec, Slide: sec}),
		join("self-join", KeySpec{0}, 0, 0, WindowSpec{Range: 1500 * vtime.Millisecond, Slide: sec}),
	}
	e, err := New(cfg, []StreamDef{testStream("a", 16), wide}, qs)
	if err != nil {
		tb.Fatal(err)
	}
	e.Metrics().StartMeasurement(0)
	return e
}

// exactMove is one extracted group on its way to a new owner.
type exactMove struct {
	to      int
	en      *entry
	refAgg  []AggPartial
	refJoin [2][]Tuple
}

type exactHarness struct {
	tb     testing.TB
	e      *Engine
	ref    *refExact
	clock  vtime.Time
	moves  []exactMove
	frags  []CkptGroup // the last capture, for restores
	data   []byte
	steps  int
	engRes [][]AggResult // per query, as folded into the engine's log
	refRes [][]AggResult
}

func newExactHarness(tb testing.TB, data []byte) *exactHarness {
	e := exactFixture(tb)
	return &exactHarness{tb: tb, e: e, ref: newRefExact(e), clock: 5 * vtime.Time(vtime.Second), data: data,
		engRes: make([][]AggResult, len(e.queries)), refRes: make([][]AggResult, len(e.queries))}
}

func (h *exactHarness) next(n int) int {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return int(b) % n
}

func (h *exactHarness) fail(format string, args ...any) {
	h.tb.Helper()
	h.tb.Fatalf("step %d: %s", h.steps, fmt.Sprintf(format, args...))
}

// run replays the whole operation sequence.
func (h *exactHarness) run() {
	for len(h.data) > 0 {
		h.steps++
		switch op := h.next(16); {
		case op < 8:
			h.insert()
		case op < 10:
			h.close()
		case op < 12:
			h.extract()
		case op < 13:
			h.merge()
		case op < 14:
			h.capture()
		case op < 15:
			h.restore()
		default:
			h.destroy()
		}
		h.compareState()
	}
	for len(h.moves) > 0 {
		h.merge()
		h.compareState()
	}
	for qi := range h.e.queries {
		if !reflect.DeepEqual(h.e.Results(qi), h.engRes[qi]) {
			h.fail("query %d: Results() differs from the staged emissions", qi)
		}
		if len(h.engRes[qi]) != len(h.refRes[qi]) || (len(h.engRes[qi]) > 0 && !reflect.DeepEqual(h.engRes[qi], h.refRes[qi])) {
			h.fail("query %d: %d results, reference %d", qi, len(h.engRes[qi]), len(h.refRes[qi]))
		}
	}
}

func (h *exactHarness) insert() {
	si := h.next(len(h.e.slots))
	qi := h.next(len(h.e.queries))
	q := h.e.queries[qi]
	side := h.next(len(q.spec.Inputs))
	h.clock += vtime.Time(h.next(4)) * vtime.Time(100*vtime.Millisecond)
	ts := h.clock
	if h.next(8) == 0 { // a late row, possibly into closed windows
		ts -= vtime.Time(h.next(24)) * vtime.Time(100*vtime.Millisecond)
	}
	t := Tuple{TS: ts}
	for c := 0; c < h.e.streams[q.spec.Inputs[side].Stream].NumCols; c++ {
		t.Cols[c] = int64(h.next(12))
	}
	w := []float64{1, 0.5, 2, 3}[h.next(4)]
	g := h.e.space.GroupOf(q.spec.Inputs[side].Key.KeyOf(&t))
	tt := t
	h.e.insert(h.e.slots[si], q, side, &tt, g, w)
	h.ref.insert(si, qi, side, t, g, w)
}

// harvest drains slot s's staged results into the engine's result log
// and returns them with any staged extraction entry.
func (h *exactHarness) harvest(s *slot) (res []AggResult, en *entry) {
	for _, r := range s.fx.results {
		res = append(res, r)
		h.e.results[r.Query].add(r)
		h.engRes[r.Query] = append(h.engRes[r.Query], r)
	}
	for i := range s.fx.events {
		if ev := &s.fx.events[i]; ev.kind == evtExtract {
			en = ev.en
		}
	}
	s.fx.events, s.fx.results = s.fx.events[:0], s.fx.results[:0]
	return res, en
}

func (h *exactHarness) close() {
	si := h.next(len(h.e.slots))
	s := h.e.slots[si]
	wm := h.clock - vtime.Time(h.next(16))*vtime.Time(100*vtime.Millisecond)
	if wm <= s.wm {
		return
	}
	s.wm, h.ref.slots[si].wm = wm, wm
	h.e.closeExactWindows(s)
	got, _ := h.harvest(s)
	want := h.ref.close(si)
	for _, r := range want {
		h.refRes[r.Query] = append(h.refRes[r.Query], r)
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		h.fail("close slot %d at %v: results\n got %v\nwant %v", si, wm, got, want)
	}
}

func (h *exactHarness) moving(qi int, g keyspace.GroupID) bool {
	for _, m := range h.moves {
		if m.en.stQuery == qi && m.en.stGroup == g {
			return true
		}
	}
	return false
}

func (h *exactHarness) extract() {
	qi := h.next(len(h.e.queries))
	g := keyspace.GroupID(h.next(h.e.cfg.NumGroups))
	from := h.next(len(h.e.slots))
	to := (from + 1 + h.next(len(h.e.slots)-1)) % len(h.e.slots)
	if h.moving(qi, g) {
		return
	}
	k := pendKey{qi, g}
	h.e.slots[to].pendingState[k] = true
	h.ref.slots[to].pending[k] = true
	s := h.e.slots[from]
	h.e.extractState(s, h.e.nodes[s.node], qi, g)
	_, en := h.harvest(s)
	agg, join, weight := h.ref.extract(from, qi, g)
	if en == nil {
		h.fail("extract (%d, %d) staged no entry", qi, g)
	}
	if !slices.Equal(en.stAgg, agg) || !slices.Equal(en.stJoin[0], join[0]) || !slices.Equal(en.stJoin[1], join[1]) {
		h.fail("extract (%d, %d) from slot %d: payload\n got %v %v\nwant %v %v", qi, g, from, en.stAgg, en.stJoin, agg, join)
	}
	if en.stWeight != weight {
		h.fail("extract (%d, %d): weight %v, reference %v", qi, g, en.stWeight, weight)
	}
	h.moves = append(h.moves, exactMove{to: to, en: en, refAgg: agg, refJoin: join})
}

func (h *exactHarness) merge() {
	if len(h.moves) == 0 {
		return
	}
	i := h.next(len(h.moves))
	m := h.moves[i]
	h.moves = slices.Delete(h.moves, i, i+1)
	h.e.outstandingState++
	h.e.mergeState(h.e.slots[m.to], m.en, false)
	h.ref.merge(m.to, m.en.stQuery, m.en.stGroup, m.refAgg, m.refJoin)
}

// canonFrags sorts capture fragments by (query, group) and each
// payload as checkpoint assembly does.
func canonFrags(frags []CkptGroup) []CkptGroup {
	out := slices.Clone(frags)
	for i := range out {
		out[i].Agg = slices.Clone(out[i].Agg)
		out[i].Join = [2][]Tuple{slices.Clone(out[i].Join[0]), slices.Clone(out[i].Join[1])}
		sortGroupState(&out[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].Group < out[j].Group
	})
	return out
}

func (h *exactHarness) capture() {
	si := h.next(len(h.e.slots))
	got := canonFrags(h.e.captureExact(h.e.slots[si]))
	want := canonFrags(h.ref.capture(si))
	if !reflect.DeepEqual(got, want) {
		h.fail("capture slot %d:\n got %+v\nwant %+v", si, got, want)
	}
	h.frags = got
}

func (h *exactHarness) restore() {
	if len(h.frags) == 0 {
		return
	}
	cg := h.frags[h.next(len(h.frags))]
	if h.moving(cg.Query, cg.Group) {
		return
	}
	owner := int(h.e.queries[cg.Query].assign.Partition(cg.Group))
	h.e.RestoreGroup(cg, h.clock)
	h.ref.merge(owner, cg.Query, cg.Group, cg.Agg, cg.Join)
}

func (h *exactHarness) destroy() {
	n := h.next(h.e.cfg.Nodes)
	lost := h.e.destroyNodeState(cluster.NodeID(n))
	want, dead := h.ref.destroy(n)
	if lost != want {
		h.fail("destroy node %d: lost %v, reference %v", n, lost, want)
	}
	got := map[pendKey]bool{}
	for _, k := range h.e.DrainDestroyedState() {
		got[pendKey{k.Query, k.Group}] = true
	}
	if len(got) != len(dead) || (len(got) > 0 && !reflect.DeepEqual(got, dead)) {
		h.fail("destroy node %d: destroyed cells %v, reference %v", n, got, dead)
	}
}

// compareState checks every live cell, buffered row, parked row and
// the emitted metric against the reference.
func (h *exactHarness) compareState() {
	h.tb.Helper()
	for n := range h.ref.emitted {
		for qi, want := range h.ref.emitted[n] {
			if got := h.e.metrics.parts[n].emitted[qi]; got != want {
				h.fail("node %d query %d: emitted %v, reference %v", n, qi, got, want)
			}
		}
	}
	for si, s := range h.e.slots {
		got, want := engineCells(s), h.ref.cells(si)
		if !reflect.DeepEqual(got, want) {
			h.fail("slot %d cells:\n got %v\nwant %v", si, got, want)
		}
		gh, wh := engineHeld(s), h.ref.heldRows(si)
		if !reflect.DeepEqual(gh, wh) {
			h.fail("slot %d parked rows:\n got %v\nwant %v", si, gh, wh)
		}
	}
}

// exactCell is one live cell in a layout-free form: an aggregate
// (side -1), a join (window, key) row count, or one buffered join row
// under its newest window (Row set).
type exactCell struct {
	Query, Side int
	Win         vtime.Time
	Key         uint64
	Sum, Weight float64
	Count       int
	Row         Tuple
}

func sortCells(cs []exactCell) []exactCell {
	sort.Slice(cs, func(i, j int) bool {
		a, b := &cs[i], &cs[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.Win != b.Win {
			return a.Win < b.Win
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		return tupleLess(&a.Row, &b.Row)
	})
	return cs
}

func engineCells(s *slot) []exactCell {
	cs := []exactCell{}
	for qi := range s.exact {
		for _, wt := range s.exact[qi].wins {
			for j, k := range wt.agg.keys {
				cs = append(cs, exactCell{Query: qi, Side: -1, Win: wt.start, Key: k, Sum: wt.sum[j], Weight: wt.weight[j]})
			}
			for side := range wt.join {
				js := &wt.join[side]
				for j, k := range js.keys.keys {
					cs = append(cs, exactCell{Query: qi, Side: side, Win: wt.start, Key: k, Count: int(js.cnt[j])})
				}
				for i := 0; i < js.run.n; i++ {
					cs = append(cs, exactCell{Query: qi, Side: side, Win: wt.start, Key: js.run.key(i), Count: -1, Row: js.run.tuple(i)})
				}
			}
		}
	}
	return sortCells(cs)
}

func (r *refExact) cells(si int) []exactCell {
	rs := r.slots[si]
	cs := []exactCell{}
	for qi, a := range rs.agg {
		for k, acc := range a {
			cs = append(cs, exactCell{Query: qi, Side: -1, Win: k.win, Key: k.key, Sum: acc.sum, Weight: acc.weight})
		}
	}
	for qi, st := range rs.join {
		for side := range st {
			for k, buf := range st[side] {
				cs = append(cs, exactCell{Query: qi, Side: side, Win: k.win, Key: k.key, Count: len(buf)})
				for _, t := range buf {
					if r.newest(qi, t.TS) == k.win {
						cs = append(cs, exactCell{Query: qi, Side: side, Win: k.win, Key: k.key, Count: -1, Row: t})
					}
				}
			}
		}
	}
	return sortCells(cs)
}

// parkedRow is one held row in a layout-free form.
type parkedRow struct {
	Key  pendKey
	Side int
	Row  Tuple
	W    float64
}

func engineHeld(s *slot) []parkedRow {
	rows := []parkedRow{}
	for k, hb := range s.held {
		for i := 0; i < hb.rows(); i++ {
			var t Tuple
			hb.blk.RowTuple(&t, i, MaxCols)
			rows = append(rows, parkedRow{k, int(hb.sides[i]), t, hb.blk.W[i]})
		}
	}
	return sortParked(rows)
}

func (r *refExact) heldRows(si int) []parkedRow {
	rows := []parkedRow{}
	for k, hs := range r.slots[si].held {
		for _, x := range hs {
			rows = append(rows, parkedRow{k, x.side, x.t, x.w})
		}
	}
	return sortParked(rows)
}

// sortParked orders rows by cell, keeping each cell's arrival order.
func sortParked(rows []parkedRow) []parkedRow {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].Key, rows[j].Key
		if a.query != b.query {
			return a.query < b.query
		}
		return a.group < b.group
	})
	return rows
}

// exactSequence is a seeded random operation sequence for the harness.
func exactSequence(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestExactStateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			newExactHarness(t, exactSequence(seed, 3000)).run()
		})
	}
}

// FuzzExactState replays arbitrary operation sequences through the
// flat layer and the map-based reference.
func FuzzExactState(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(exactSequence(seed, 600))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0x0b0a0c0d0e0f0102)
	f.Add(b[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		newExactHarness(t, data).run()
	})
}

// TestSteadyStateTickAllocs pins the exact-state hot path's allocation
// budget: once the heavy bench fixture (weight 1, exact windows, six
// shared queries, 200 k rows/s) is in steady state, one Run(Tick)
// allocates at most 100 objects.
func TestSteadyStateTickAllocs(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(-1)
	e := benchEngineAt(t, true, 6, heavyFixture)
	e.PinTickWorkers(1)
	// Steady state starts once windows have closed and recycled their
	// tables and run chunks: two more 2 s window cycles.
	e.Run(4 * vtime.Second)
	tick := e.cfg.Tick
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.Run(tick); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("steady-state Run(Tick) made %.0f allocations, budget 100", allocs)
	}
}

// TestSortedCellsMatchesSort holds the radix walk to a plain sort of
// the key lane, with and without a filter, over key sets from a handful
// (the comparison path) to thousands, narrow and full-width.
func TestSortedCellsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &slot{}
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 5000} {
		for _, bits := range []uint{8, 17, 40, 64} {
			var kt keyTable
			for i := 0; i < n; i++ {
				k := rng.Uint64()
				if bits < 64 {
					k &= 1<<bits - 1
				}
				kt.add(k) // duplicates fold: at most 256 keys at 8 bits
			}
			for _, keep := range []func(uint64) bool{nil, func(k uint64) bool { return k%3 != 0 }} {
				var want []uint64
				for _, k := range kt.keys {
					if keep == nil || keep(k) {
						want = append(want, k)
					}
				}
				slices.Sort(want)
				got := s.sortedCells(&kt, keep)
				if len(got) != len(want) {
					t.Fatalf("n=%d bits=%d: %d cells, want %d", n, bits, len(got), len(want))
				}
				for i, c := range got {
					if c.key != want[i] || kt.keys[c.idx] != c.key {
						t.Fatalf("n=%d bits=%d: cell %d = %+v, want key %d", n, bits, i, c, want[i])
					}
				}
			}
		}
	}
}
