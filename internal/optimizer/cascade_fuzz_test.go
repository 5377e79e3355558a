package optimizer

import (
	"fmt"
	"testing"

	"saspar/internal/parallel"
)

// cascadeFuzzCase decodes a node-capped cascade from fuzz bytes: 1–10
// query classes over one or two streams, 4–32 key groups, 2–8
// partitions, 1–3 iterations, a node cap small enough that some
// cascades stop at their first solve, some mid-cascade and some never,
// a random set of disabled heuristics, low tree/hybrid/node thresholds
// so every detour can run, and an optional anchor with or without a
// movement cost and a refine mask.
func cascadeFuzzCase(data []byte) (*Request, Options) {
	if len(data) < 10 {
		return nil, Options{}
	}
	queries := 1 + int(data[0])%10
	groups := 4 + int(data[1])%29
	partitions := 2 + int(data[2])%7
	streams := 1 + int(data[9])%2
	next := 10
	byteAt := func() float64 {
		if next >= len(data) {
			next = 10
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

	opt := Options{
		DeterministicBudget: true,
		IterMax:             1 + int(data[3])%3,
		MaxNodes:            1 + int64(data[4])*int64(data[4])/16,
		OptGap:              0.01 + float64(data[8]%16)/100,
		TreeThreshold:       int(data[7] & 7),
		HybridThreshold:     int(data[7] >> 4),
		NumNodes:            1 + int(data[8]>>4)%4,
	}
	for bit, h := range []string{HeurOptGap, HeurMergeKeys, HeurMergePar, HeurTreeOpt, HeurHybridExec, HeurGreedy} {
		if data[5]&(1<<bit) != 0 {
			if opt.Disable == nil {
				opt.Disable = map[string]bool{}
			}
			opt.Disable[h] = true
		}
	}
	if data[6]&1 != 0 {
		opt.Anchor = ringAnchor(req)
		if data[6]&2 != 0 {
			opt.MoveCost = make([]float64, queries)
			for i := range opt.MoveCost {
				opt.MoveCost[i] = byteAt() / 2550
			}
		}
		if data[6]&4 != 0 {
			opt.RefineGroups = make([]bool, groups)
			for g := range opt.RefineGroups {
				opt.RefineGroups[g] = byteAt() < 128
			}
		}
	}
	return req, opt
}

// FuzzCascadeWidth holds the node-capped cascade to the same outcome
// whether its planned solves run one at a time (no spare token) or two
// at a time (one spare token): plans, objective, solve and node counts,
// bound gap, heuristics list, crediting step and exactness agree bit for
// bit.
func FuzzCascadeWidth(f *testing.F) {
	f.Add([]byte{0, 28, 6, 2, 40, 0, 0, 0, 0, 0, 10, 200, 30, 90, 4, 170})
	f.Add([]byte{0, 28, 6, 2, 255, 0, 7, 0, 0, 0, 10, 200, 30, 90, 4, 170})
	f.Add([]byte{9, 28, 6, 2, 60, 0, 3, 0x32, 0x31, 1, 250, 3, 99, 128, 7, 64, 33})
	f.Add([]byte{4, 12, 1, 1, 20, 0x10, 1, 0x21, 0x10, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{6, 20, 4, 0, 120, 0x24, 5, 0, 0x30, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 6, 0, 2, 200, 0x01, 0, 0x11, 0, 0, 255, 0, 255, 0, 128})
	f.Add([]byte{0, 11, 2, 2, 255, 0, 0, 0, 0, 0, 10, 200, 30, 90, 4, 170, 77, 26})
	f.Add([]byte{1, 8, 1, 2, 255, 0, 7, 0, 0, 0, 10, 200, 30, 90, 4, 170, 56, 13})
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
