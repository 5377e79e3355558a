package optimizer

import (
	"fmt"
	"testing"

	"saspar/internal/parallel"
)

// cascadeFuzzCase decodes a node-capped cascade from fuzz bytes: 1–40
// query classes over one or two streams, 4–32 key groups, 2–16
// partitions, a node cap small enough that some cascades stop at their
// first solve, some mid-cascade and some never, and an optional anchor
// with or without a movement cost. The class and
// partition ranges straddle the cascade's constants, so every detour
// can run: merged partitions above 8 partitions, tree optimization
// above 8 classes and hybrid execution above 32.
func cascadeFuzzCase(data []byte) (*Request, Options) {
	if len(data) < 6 {
		return nil, Options{}
	}
	queries := 1 + int(data[0])%40
	groups := 4 + int(data[1])%29
	partitions := 2 + int(data[2])%15
	streams := 1 + int(data[5])%2
	next := 6
	byteAt := func() float64 {
		if next >= len(data) {
			next = 6
		}
		if next >= len(data) {
			return 37
		}
		b := data[next]
		next++
		return float64(b)
	}
	req := &Request{
		NumPartitions: partitions,
		NumGroups:     groups,
		NumStreams:    streams,
		LocalFrac:     make([]float64, partitions),
		LatNet:        1.0,
		LatMem:        0.01,
		LatProc:       0.1 + byteAt()/255,
	}
	for p := range req.LocalFrac {
		req.LocalFrac[p] = byteAt() / 255 * 0.5
	}
	for q := 0; q < queries; q++ {
		in := InputStats{Stream: q % streams, Card: make([]float64, groups), SW: make([]float64, groups)}
		for g := 0; g < groups; g++ {
			in.Card[g] = 1 + byteAt()
			in.SW[g] = byteAt() / 255
		}
		req.Queries = append(req.Queries, QueryStats{ID: fmt.Sprint("q", q), Weight: 1, Inputs: []InputStats{in}})
	}

	opt := Options{DeterministicBudget: true, MaxNodes: 1 + int64(data[3])*int64(data[3])/16}
	if data[4]&1 != 0 {
		opt.Anchor = ringAnchor(req)
		if data[4]&2 != 0 {
			opt.MoveCost = make([]float64, queries)
			for i := range opt.MoveCost {
				opt.MoveCost[i] = byteAt() / 2550
			}
		}
	}
	return req, opt
}

// FuzzCascadeWidth holds the node-capped cascade to the same outcome
// whether its planned solves run one at a time (no spare token) or two
// at a time (one spare token): plans, objective, solve and node counts,
// bound gap, heuristics list, crediting step and exactness agree bit for
// bit. The widened gap runs on every seed and merged key groups on most;
// the last three seeds reach merged partitions (12 partitions), tree
// optimization (12 classes) and hybrid execution (36 classes).
func FuzzCascadeWidth(f *testing.F) {
	f.Add([]byte{0, 28, 6, 40, 0, 0, 10, 200, 30, 90, 4, 170})
	f.Add([]byte{0, 28, 6, 255, 7, 0, 10, 200, 30, 90, 4, 170})
	f.Add([]byte{9, 28, 6, 60, 3, 1, 250, 3, 99, 128, 7, 64, 33})
	f.Add([]byte{4, 12, 1, 20, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{6, 20, 4, 120, 5, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 6, 0, 200, 0, 0, 255, 0, 255, 0, 128})
	f.Add([]byte{0, 11, 2, 255, 0, 0, 10, 200, 30, 90, 4, 170, 77, 26})
	f.Add([]byte{1, 8, 1, 255, 7, 0, 10, 200, 30, 90, 4, 170, 56, 13})
	f.Add([]byte{3, 20, 10, 30, 1, 0, 10, 200, 30, 90, 4, 170, 77, 26})
	f.Add([]byte{11, 16, 4, 40, 3, 0, 250, 3, 99, 128, 7, 64, 33})
	f.Add([]byte{35, 12, 6, 16, 7, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, opt := cascadeFuzzCase(data)
		if req == nil {
			return
		}
		defer parallel.SetBudget(-1)
		run := func(budget int) *Result {
			parallel.SetBudget(budget)
			res, err := Optimize(req, opt)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			return res
		}
		one, two := run(0), run(1)
		if one.Objective != two.Objective || one.Solves != two.Solves || one.Nodes != two.Nodes || one.BoundGap != two.BoundGap {
			t.Fatalf("objective %v, %d solves, %d nodes, bound gap %v at width 1; %v, %d, %d, %v at width 2",
				one.Objective, one.Solves, one.Nodes, one.BoundGap, two.Objective, two.Solves, two.Nodes, two.BoundGap)
		}
		if fmt.Sprint(one.Heuristics) != fmt.Sprint(two.Heuristics) || one.SucceededVia != two.SucceededVia || one.Exact != two.Exact {
			t.Fatalf("%v via %q exact %v at width 1; %v via %q exact %v at width 2",
				one.Heuristics, one.SucceededVia, one.Exact, two.Heuristics, two.SucceededVia, two.Exact)
		}
		for qi := range one.Assign {
			if fmt.Sprint(one.Assign[qi].Table()) != fmt.Sprint(two.Assign[qi].Table()) {
				t.Fatalf("query %d: plan %v at width 1, %v at width 2", qi, one.Assign[qi].Table(), two.Assign[qi].Table())
			}
		}
	})
}
