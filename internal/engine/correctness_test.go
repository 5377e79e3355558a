package engine

import (
	"math"
	"reflect"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file holds the heavier end-to-end correctness invariants of the
// runtime: results must be independent of sharing mode, of sliding vs
// tumbling execution details, and of any schedule of live join
// re-partitionings.

// runExactMulti runs `n` same-key aggregation queries in the given
// sharing mode and returns each query's sorted results.
func runExactMulti(t *testing.T, shared bool, n int, d vtime.Duration) [][]AggResult {
	t.Helper()
	cfg := lightConfig()
	cfg.Shared = shared
	streams := []StreamDef{testStream("s", 16)}
	var queries []QuerySpec
	for i := 0; i < n; i++ {
		queries = append(queries, aggQuery("q", 0))
	}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(d)
	out := make([][]AggResult, n)
	for i := 0; i < n; i++ {
		rs := append([]AggResult(nil), e.Results(i)...)
		// Results carry the query index; normalize for comparison.
		for j := range rs {
			rs[j].Query = 0
		}
		SortAggResults(rs)
		out[i] = rs
	}
	return out
}

func TestSharedModePreservesExactResults(t *testing.T) {
	// The shared partitioner must be invisible to query semantics:
	// identical results with sharing on and off, and identical results
	// across the sharing queries.
	ns := runExactMulti(t, false, 2, 10*vtime.Second)
	sh := runExactMulti(t, true, 2, 10*vtime.Second)
	if len(ns[0]) == 0 {
		t.Fatal("no results")
	}
	if !reflect.DeepEqual(ns[0], ns[1]) {
		t.Fatal("non-shared queries disagree with each other")
	}
	if !reflect.DeepEqual(sh[0], sh[1]) {
		t.Fatal("shared queries disagree with each other")
	}
	if !reflect.DeepEqual(ns[0], sh[0]) {
		t.Fatalf("sharing changed results: %d vs %d rows", len(ns[0]), len(sh[0]))
	}
}

func TestSlidingWindowMassConservation(t *testing.T) {
	// With Range = 3*Slide every tuple lands in exactly 3 window
	// instances: total emitted weight must be 3x the tumbling weight
	// over the same closed span.
	run := func(rng, slide vtime.Duration) float64 {
		cfg := lightConfig()
		q := aggQuery("q", 0)
		q.Window = WindowSpec{Range: rng, Slide: slide}
		e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{q})
		if err != nil {
			t.Fatal(err)
		}
		e.SetStreamRate(0, 200)
		e.Run(14 * vtime.Second)
		// Sum weights of windows fully inside the steady span [3s, 9s).
		var w float64
		for _, r := range e.Results(0) {
			if r.Win >= vtime.Time(3*vtime.Second) && r.Win < vtime.Time(9*vtime.Second) {
				w += r.Weight
			}
		}
		return w
	}
	tumbling := run(vtime.Second, vtime.Second)
	sliding := run(3*vtime.Second, vtime.Second)
	if tumbling == 0 {
		t.Fatal("no tumbling mass")
	}
	if ratio := sliding / tumbling; math.Abs(ratio-3) > 0.2 {
		t.Fatalf("sliding/tumbling mass ratio = %v, want ~3", ratio)
	}
}

// joinEngine builds a single exact tumbling join over two small
// streams.
func joinEngine(t *testing.T) *Engine {
	t.Helper()
	return joinEngineOver(t, WindowSpec{Range: vtime.Second, Slide: vtime.Second})
}

// joinEngineOver is joinEngine with the given window.
func joinEngineOver(t *testing.T, win WindowSpec) *Engine {
	t.Helper()
	cfg := lightConfig()
	streams := []StreamDef{testStream("l", 8), testStream("r", 8)}
	q := QuerySpec{
		ID: "j", Kind: OpJoin,
		Inputs: []Input{
			{Stream: 0, Key: KeySpec{0}},
			{Stream: 1, Key: KeySpec{0}},
		},
		Window: win,
	}
	e, err := New(cfg, streams, []QuerySpec{q})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 100)
	e.SetStreamRate(1, 100)
	return e
}

func TestReconfigurationPreservesJoinMatches(t *testing.T) {
	checkJoinMatchesPreserved(t, WindowSpec{Range: vtime.Second, Slide: vtime.Second})
}

// TestReconfigurationPreservesSlidingJoinMatches is the sliding-window
// case: a buffered row sits in two window instances, and must move —
// and re-expand at its new owner — once, not once per instance.
func TestReconfigurationPreservesSlidingJoinMatches(t *testing.T) {
	checkJoinMatchesPreserved(t, WindowSpec{Range: 2 * vtime.Second, Slide: vtime.Second})
}

func checkJoinMatchesPreserved(t *testing.T, win WindowSpec) {
	// Total join matches over a fixed horizon must be identical with
	// and without a live re-partitioning: held tuples replay against
	// the merged buffers, so no match is lost or duplicated.
	run := func(reconfig bool) float64 {
		e := joinEngineOver(t, win)
		e.Metrics().StartMeasurement(0)
		e.Run(6 * vtime.Second)
		if reconfig {
			na := e.Assignment(0).Clone()
			for g := 0; g < na.NumGroups(); g++ {
				na.Set(keyspace.GroupID(g), (na.Partition(keyspace.GroupID(g))+1)%keyspace.PartitionID(e.Config().NumPartitions))
			}
			if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: na}); err != nil {
				t.Fatal(err)
			}
			epoch := e.Epoch()
			for i := 0; i < 200 && !e.ReconfigComplete(epoch); i++ {
				e.Run(e.Config().Tick)
			}
			if !e.ReconfigComplete(epoch) {
				t.Fatal("join reconfiguration never completed")
			}
			e.InjectFinalize()
		}
		// Continue to a fixed virtual horizon either way.
		e.Run(vtime.Time(14 * vtime.Second).Sub(e.Clock()))
		e.Metrics().StopMeasurement(e.Clock())
		return e.Metrics().EmittedTotal()
	}
	base := run(false)
	moved := run(true)
	if base == 0 {
		t.Fatal("join emitted nothing")
	}
	if base != moved {
		t.Fatalf("re-partitioning changed join matches: %v vs %v", base, moved)
	}
}

func TestRepeatedReconfigurationsPreserveAggResults(t *testing.T) {
	// Three successive live re-partitionings, results still identical.
	base := runExact(t, lightConfig(), 16*vtime.Second, nil)
	moved := runExact(t, lightConfig(), 16*vtime.Second, func(e *Engine) {
		for round := 0; round < 3; round++ {
			if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
				t.Fatal(err)
			}
			epoch := e.Epoch()
			for i := 0; i < 200 && !e.ReconfigComplete(epoch); i++ {
				e.Run(e.Config().Tick)
			}
			if !e.ReconfigComplete(epoch) {
				t.Fatalf("round %d never completed", round)
			}
			e.InjectFinalize()
			e.Run(vtime.Second)
		}
	})
	if len(base) == 0 {
		t.Fatal("no results")
	}
	last := base[len(base)-1].Win
	var trimmed []AggResult
	for _, r := range moved {
		if r.Win <= last {
			trimmed = append(trimmed, r)
		}
	}
	if !reflect.DeepEqual(base, trimmed) {
		t.Fatalf("results diverged after 3 reconfigurations: %d vs %d rows", len(base), len(trimmed))
	}
}

func TestHeldTuplesReplayAfterMerge(t *testing.T) {
	// White-box: force a pending group and verify insert parks tuples,
	// merge replays them.
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	s := e.slots[0]
	g := keyspace.GroupID(0)
	s.pendingState[pendKey{0, g}] = true
	var tu Tuple
	tu.Cols[2] = 5
	e.insert(s, e.queries[0], 0, &tu, g, 1)
	if aggCells(s, 0) != 0 {
		t.Fatal("tuple folded despite pending state")
	}
	if s.held[pendKey{0, g}].rows() != 1 {
		t.Fatal("tuple not parked")
	}
	e.outstandingState++
	e.mergeState(s, &entry{kind: entryState, stQuery: 0, stGroup: g}, false)
	if got := s.held[pendKey{0, g}].rows(); got != 0 {
		t.Fatalf("%d tuples still parked after merge", got)
	}
	if aggCells(s, 0) == 0 {
		t.Fatal("replayed tuple missing from state")
	}
}

// aggCells counts query qi's live aggregation cells on slot s, over
// every open window instance.
func aggCells(s *slot, qi int) int {
	if qi >= len(s.exact) {
		return 0
	}
	n := 0
	for _, wt := range s.exact[qi].wins {
		n += len(wt.agg.keys)
	}
	return n
}
