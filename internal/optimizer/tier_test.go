package optimizer

import (
	"fmt"
	"math"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
)

// TestTierDispatch checks which rounds skip the cascade. Only a round
// with a feasible anchor, MIPOnly off and more than treeThreshold
// classes runs the anchored tier, and it reports no solve, no node, no
// bound gap, no heuristic, no crediting step and no exactness.
func TestTierDispatch(t *testing.T) {
	opt := Options{DeterministicBudget: true, MaxNodes: 10}
	anchored := func(req *Request) Options {
		o := opt
		o.Anchor = ringAnchor(req)
		return o
	}
	for _, tc := range []struct {
		name    string
		classes int
		opt     func(*Request) Options
		tier    bool
	}{
		{"anchored/8 classes", treeThreshold, anchored, false},
		{"anchored/9 classes", treeThreshold + 1, anchored, true},
		{"unanchored/9 classes", treeThreshold + 1, func(*Request) Options { return opt }, false},
		{"unassigned anchor/9 classes", treeThreshold + 1, func(req *Request) Options {
			o := anchored(req)
			o.Anchor[0].Set(3, keyspace.NoPartition)
			return o
		}, false},
		{"MIPOnly/9 classes", treeThreshold + 1, func(req *Request) Options {
			o := anchored(req)
			o.MIPOnly = true
			return o
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := testRequest(17, tc.classes, 12, 4)
			o := tc.opt(req)
			res, err := Optimize(req, o)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.tier:
				if res.Solves != 0 || res.Nodes != 0 || res.BoundGap != 0 || res.Exact ||
					len(res.Heuristics) != 0 || res.SucceededVia != "" {
					t.Fatalf("tier round: %d solves, %d nodes, bound gap %v, exact %v, heuristics %v, via %q",
						res.Solves, res.Nodes, res.BoundGap, res.Exact, res.Heuristics, res.SucceededVia)
				}
			case o.MIPOnly:
				if res.Solves != 1 || len(res.Heuristics) != 0 {
					t.Fatalf("MIPOnly: %d solves, heuristics %v; want one solve", res.Solves, res.Heuristics)
				}
			case res.Solves == 0:
				t.Fatalf("no cascade ran: %v", res.Heuristics)
			}
		})
	}
}

// tierFuzzCase decodes an anchored many-class round from fuzz bytes:
// 9–40 query classes of weight 1–3, each reading stream 0 and some also
// stream 1 (one component either way), 4–32 key groups, 2–16
// partitions, cards of which about a quarter are zero, an anchor whose
// queries disagree on groups, and by flag bits a movement cost (some
// queries' zero) and an AllowedPartitions mask the anchor avoids.
func tierFuzzCase(data []byte) (*Request, Options) {
	if len(data) < 5 {
		return nil, Options{}
	}
	queries := treeThreshold + 1 + int(data[0])%32
	groups := 4 + int(data[1])%29
	partitions := 2 + int(data[2])%15
	flags := data[3]
	next := 4
	byteAt := func() int {
		if next >= len(data) {
			next = 4
		}
		b := data[next]
		next++
		return int(b)
	}
	req := &Request{
		NumPartitions: partitions,
		NumGroups:     groups,
		NumStreams:    2,
		LocalFrac:     make([]float64, partitions),
		LatNet:        1.0,
		LatMem:        0.01,
		LatProc:       0.1 + float64(byteAt())/255,
	}
	for p := range req.LocalFrac {
		req.LocalFrac[p] = float64(byteAt()) / 255 * 0.5
	}
	for q := 0; q < queries; q++ {
		qs := QueryStats{ID: fmt.Sprint("q", q), Weight: float64(1 + byteAt()%3)}
		streams := 1
		if flags&2 != 0 && byteAt()%2 == 1 {
			streams = 2
		}
		for s := 0; s < streams; s++ {
			in := InputStats{Stream: s, Card: make([]float64, groups), SW: make([]float64, groups)}
			for g := 0; g < groups; g++ {
				if b := byteAt(); b%4 != 0 {
					in.Card[g] = float64(b)
				}
				in.SW[g] = float64(byteAt()) / 255
			}
			qs.Inputs = append(qs.Inputs, in)
		}
		req.Queries = append(req.Queries, qs)
	}

	opt := Options{DeterministicBudget: true, MaxNodes: 10}
	var allowed []int
	if flags&4 != 0 {
		opt.AllowedPartitions = make([]bool, partitions)
		opt.AllowedPartitions[byteAt()%partitions] = true
		for p := range opt.AllowedPartitions {
			if byteAt()%3 != 0 {
				opt.AllowedPartitions[p] = true
			}
		}
		allowed, _ = keyspace.SubsetIndex(opt.AllowedPartitions)
	} else {
		for p := 0; p < partitions; p++ {
			allowed = append(allowed, p)
		}
	}
	shared := keyspace.NewAssignment(groups)
	for g := 0; g < groups; g++ {
		shared.Set(keyspace.GroupID(g), keyspace.PartitionID(allowed[byteAt()%len(allowed)]))
	}
	for q := 0; q < queries; q++ {
		a := shared.Clone()
		for g := 0; g < groups; g++ {
			if b := byteAt(); b%5 == 0 {
				a.Set(keyspace.GroupID(g), keyspace.PartitionID(allowed[b/5%len(allowed)]))
			}
		}
		opt.Anchor = append(opt.Anchor, a)
	}
	if flags&1 != 0 {
		opt.MoveCost = make([]float64, queries)
		for i := range opt.MoveCost {
			opt.MoveCost[i] = float64(byteAt()%40) / 400
		}
	}
	return req, opt
}

// FuzzAnchoredTier holds an anchored many-class round to the tier's
// definition, bit for bit: its plan and objective are those of
// coordinatedDescent started from the better of the anchor and the
// greedy seed (the anchor on a tie), its objective is mip.Evaluate +
// mip.MovementPenalty of its plan and no worse than either candidate,
// every group of every query sits on an allowed partition, and the
// round reports no solve.
func FuzzAnchoredTier(f *testing.F) {
	f.Add([]byte{5, 28, 6, 1, 10, 200, 30, 90, 4, 170, 33, 77})
	f.Add([]byte{0, 12, 2, 0, 250, 3, 99, 128, 7, 64, 33, 1, 2, 5, 8})
	f.Add([]byte{31, 20, 14, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{9, 7, 5, 7, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255})
	f.Add([]byte{23, 31, 8, 5, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55})
	f.Add([]byte{14, 0, 0, 6, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, opt := tierFuzzCase(data)
		if req == nil {
			return
		}
		res, err := Optimize(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solves != 0 || res.Nodes != 0 || res.BoundGap != 0 || res.Exact ||
			len(res.Heuristics) != 0 || res.SucceededVia != "" {
			t.Fatalf("%d solves, %d nodes, bound gap %v, exact %v, heuristics %v, via %q; want the tier",
				res.Solves, res.Nodes, res.BoundGap, res.Exact, res.Heuristics, res.SucceededVia)
		}

		// The reference runs on the allowed partitions, as Optimize does.
		var keep, fwd []int
		rreq, ropt := *req, opt.withDefaults()
		ropt.AllowedPartitions = nil
		if opt.AllowedPartitions != nil {
			keep, fwd = keyspace.SubsetIndex(opt.AllowedPartitions)
			rreq.NumPartitions = len(keep)
			rreq.LocalFrac = nil
			for _, p := range keep {
				rreq.LocalFrac = append(rreq.LocalFrac, req.LocalFrac[p])
			}
			ropt.Anchor = nil
			for _, a := range opt.Anchor {
				ropt.Anchor = append(ropt.Anchor, keyspace.ProjectAssignment(a, fwd))
			}
		}
		c := components(&rreq)[0]
		in := buildInstance(&rreq, c)
		anchorOpts := buildAnchor(&rreq, c, ropt)
		score := func(a [][]int) float64 { return mip.Evaluate(in, a) + mip.MovementPenalty(in, anchorOpts, a) }
		anchorObj := score(anchorOpts.Prefer)
		seed := greedyAssign(in, anchorOpts)
		seedObj := score(seed)
		start := anchorOpts.Prefer
		if seedObj < anchorObj {
			start = seed
		}
		want, wantObj := coordinatedDescent(in, anchorOpts, start, 0)

		got := make([][]int, len(req.Queries))
		for qi, a := range res.Assign {
			got[qi] = make([]int, req.NumGroups)
			for g := range got[qi] {
				p := int(a.Partition(keyspace.GroupID(g)))
				if p < 0 || p >= req.NumPartitions || (keep != nil && !opt.AllowedPartitions[p]) {
					t.Fatalf("query %d group %d on partition %d, not an allowed one", qi, g, p)
				}
				if keep != nil {
					p = fwd[p]
				}
				got[qi][g] = p
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("plan %v, descent from the better candidate %v", got, want)
		}
		if math.Float64bits(res.Objective) != math.Float64bits(wantObj) {
			t.Fatalf("objective %v, descent from the better candidate %v", res.Objective, wantObj)
		}
		if obj := score(got); math.Float64bits(obj) != math.Float64bits(res.Objective) {
			t.Fatalf("objective %v, its plan scores %v", res.Objective, obj)
		}
		if res.Objective > anchorObj || res.Objective > seedObj {
			t.Fatalf("objective %v worse than a candidate: anchor %v, greedy seed %v", res.Objective, anchorObj, seedObj)
		}
	})
}
