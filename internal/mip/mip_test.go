package mip

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randInstance builds a reproducible instance with the given shape.
func randInstance(seed int64, classes, groups, partitions int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{
		NumPartitions: partitions,
		NumGroups:     groups,
		NumStreams:    1,
		LatP:          make([]float64, partitions),
		LatProc:       0.5,
	}
	for p := range in.LatP {
		if p%4 == 0 {
			in.LatP[p] = 0.2 // "local" partition
		} else {
			in.LatP[p] = 1.0
		}
	}
	for c := 0; c < classes; c++ {
		cs := ClassStream{Stream: 0, Card: make([]float64, groups), SW: make([]float64, groups)}
		for g := 0; g < groups; g++ {
			cs.Card[g] = float64(rng.Intn(90) + 10)
			cs.SW[g] = rng.Float64()
		}
		in.Classes = append(in.Classes, Class{Label: "c", Weight: 1, Streams: []ClassStream{cs}})
	}
	return in
}

// joinInstance couples two streams through every class (Eq. 3).
func joinInstance(seed int64, classes, groups, partitions int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{
		NumPartitions: partitions,
		NumGroups:     groups,
		NumStreams:    2,
		LatP:          make([]float64, partitions),
		LatProc:       0.5,
	}
	for p := range in.LatP {
		in.LatP[p] = 1.0
	}
	for c := 0; c < classes; c++ {
		var streams []ClassStream
		for s := 0; s < 2; s++ {
			cs := ClassStream{Stream: s, Card: make([]float64, groups), SW: make([]float64, groups)}
			for g := 0; g < groups; g++ {
				cs.Card[g] = float64(rng.Intn(50) + 5)
				cs.SW[g] = rng.Float64()
			}
			streams = append(streams, cs)
		}
		in.Classes = append(in.Classes, Class{Label: "j", Weight: 1, Streams: streams})
	}
	return in
}

// bruteForce finds the exact optimum by enumerating all assignments.
func bruteForce(in *Instance) float64 {
	C, G, P := len(in.Classes), in.NumGroups, in.NumPartitions
	n := C * G
	assign := make([][]int, C)
	for c := range assign {
		assign[c] = make([]int, G)
	}
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if v := Evaluate(in, assign); v < best {
				best = v
			}
			return
		}
		c, g := i/G, i%G
		for p := 0; p < P; p++ {
			assign[c][g] = p
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestValidate(t *testing.T) {
	good := randInstance(1, 2, 3, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		{NumPartitions: 0, NumGroups: 1, NumStreams: 1},
		func() *Instance { in := randInstance(1, 2, 3, 2); in.LatP = in.LatP[:1]; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes = nil; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes[0].Weight = 0; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes[0].Streams[0].SW[0] = 2; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes[0].Streams[0].Card[0] = -1; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes[0].Streams[0].Card = nil; return in }(),
		func() *Instance { in := randInstance(1, 2, 3, 2); in.Classes[0].Streams[0].Stream = 5; return in }(),
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		in := randInstance(seed, 2, 3, 2) // 6 decisions × 2 partitions = 64 assignments
		want := bruteForce(in)
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("seed %d: status %v, want optimal", seed, res.Status)
		}
		if math.Abs(res.Objective-want) > 1e-9*want {
			t.Fatalf("seed %d: objective %v, brute force %v", seed, res.Objective, want)
		}
		if got := Evaluate(in, res.Assign); math.Abs(got-res.Objective) > 1e-9*got {
			t.Fatalf("seed %d: reported objective %v but assignment evaluates to %v", seed, res.Objective, got)
		}
	}
}

func TestSolveJoinCouplingMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := joinInstance(seed, 2, 2, 3)
		want := bruteForce(in)
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Objective-want) > 1e-9*want {
			t.Fatalf("seed %d: objective %v, brute force %v", seed, res.Objective, want)
		}
	}
}

func TestSharingPullsAlignedGroupsTogether(t *testing.T) {
	// Two classes with identical cardinalities and full sharing: the
	// optimal solution must co-assign every group (traffic = 1 copy),
	// which the evaluator scores as half the no-sharing cost.
	groups, parts := 4, 2
	in := &Instance{
		NumPartitions: parts, NumGroups: groups, NumStreams: 1,
		LatP: []float64{1, 1}, LatProc: 0.01,
	}
	for c := 0; c < 2; c++ {
		cs := ClassStream{Stream: 0, Card: make([]float64, groups), SW: make([]float64, groups)}
		for g := range cs.Card {
			cs.Card[g] = 100
			cs.SW[g] = 1
		}
		in.Classes = append(in.Classes, Class{Weight: 1, Streams: []ClassStream{cs}})
	}
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		if res.Assign[0][g] != res.Assign[1][g] {
			t.Fatalf("group %d not co-assigned despite SW=1: %d vs %d", g, res.Assign[0][g], res.Assign[1][g])
		}
	}
}

func TestLoadBalancingPreventsSinglePartitionCollapse(t *testing.T) {
	// With a strong post-partition term, the solver must spread load
	// even though co-locating everything minimizes traffic (the paper's
	// "otherwise the optimizer would partition all the data to the same
	// single partition" remark in Section II-C).
	groups, parts := 6, 3
	in := &Instance{
		NumPartitions: parts, NumGroups: groups, NumStreams: 1,
		LatP: []float64{1, 1, 1}, LatProc: 50,
	}
	cs := ClassStream{Stream: 0, Card: make([]float64, groups), SW: make([]float64, groups)}
	for g := range cs.Card {
		cs.Card[g] = 100
		cs.SW[g] = 1
	}
	in.Classes = []Class{{Weight: 1, Streams: []ClassStream{cs}}}
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, p := range res.Assign[0] {
		used[p] = true
	}
	if len(used) != parts {
		t.Fatalf("solver used %d of %d partitions under a heavy makespan term", len(used), parts)
	}
}

func TestGapToleranceStopsEarly(t *testing.T) {
	in := randInstance(7, 3, 8, 4)
	// Both arms walk the same tree under the same node cap — no clock —
	// so the loose one can only stop earlier, on an earlier incumbent.
	const maxNodes = 200000
	exact, err := Solve(in, Options{MaxNodes: maxNodes})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(in, Options{RelGap: 0.5, MaxNodes: maxNodes})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Nodes > exact.Nodes {
		t.Fatalf("gap 0.5 explored %d nodes, exact needed %d", loose.Nodes, exact.Nodes)
	}
	if loose.Objective < exact.Objective-1e-9 {
		t.Fatalf("loose objective %v beat exact %v", loose.Objective, exact.Objective)
	}
	// The loose run's guarantee must hold.
	if loose.Status == GapReached && loose.Gap() > 0.5+1e-9 {
		t.Fatalf("reported gap %v exceeds requested 0.5", loose.Gap())
	}
}

func TestTimeBudgetReturnsIncumbent(t *testing.T) {
	in := randInstance(8, 6, 24, 8) // far too large to solve exactly
	res, err := Solve(in, Options{TimeBudget: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Budget {
		t.Fatalf("status %v, want budget", res.Status)
	}
	if res.Elapsed > 500*time.Millisecond {
		t.Fatalf("budget 30ms but ran %v", res.Elapsed)
	}
	// Incumbent must be a complete, consistent assignment.
	for c := range res.Assign {
		for g, p := range res.Assign[c] {
			if p < 0 || p >= in.NumPartitions {
				t.Fatalf("class %d group %d assigned to %d", c, g, p)
			}
		}
	}
	if got := Evaluate(in, res.Assign); math.Abs(got-res.Objective) > 1e-6*got {
		t.Fatalf("incumbent objective mismatch: %v vs %v", res.Objective, got)
	}
}

func TestMaxNodesBudget(t *testing.T) {
	in := randInstance(9, 4, 16, 8)
	res, err := Solve(in, Options{MaxNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Budget {
		t.Fatalf("status %v, want budget", res.Status)
	}
	if res.Nodes > 4000 {
		t.Fatalf("node budget 2000 but explored %d", res.Nodes)
	}
}

func TestRuntimeGrowsWithProblemSize(t *testing.T) {
	// The NP-hardness shape of Fig. 8a: node counts explode as the
	// instance grows.
	small, err := Solve(randInstance(10, 2, 4, 2), Options{TimeBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Solve(randInstance(10, 3, 8, 4), Options{TimeBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if big.Nodes < small.Nodes*2 {
		t.Fatalf("node count did not grow with size: %d -> %d", small.Nodes, big.Nodes)
	}
}

func TestLPBoundIsValidLowerBound(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := randInstance(seed, 2, 3, 2)
		opt := bruteForce(in)
		lb, err := LPBound(in)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt+1e-6 {
			t.Fatalf("seed %d: LP bound %v above integer optimum %v", seed, lb, opt)
		}
		if lb <= 0 {
			t.Fatalf("seed %d: trivial LP bound %v", seed, lb)
		}
	}
}

func TestLPBoundRejectsHugeInstances(t *testing.T) {
	if _, err := LPBound(randInstance(1, 14, 64, 32)); err == nil {
		t.Fatal("dense LP accepted an oversized instance")
	}
}

func TestEvaluateSharingHalvesTraffic(t *testing.T) {
	// Direct check of the cost model: two fully-sharing classes
	// co-assigned cost half the traffic of split assignment.
	in := &Instance{
		NumPartitions: 2, NumGroups: 1, NumStreams: 1,
		LatP: []float64{1, 1}, LatProc: 0,
	}
	for c := 0; c < 2; c++ {
		in.Classes = append(in.Classes, Class{Weight: 1, Streams: []ClassStream{{
			Stream: 0, Card: []float64{100}, SW: []float64{1},
		}}})
	}
	co := Evaluate(in, [][]int{{0}, {0}})
	split := Evaluate(in, [][]int{{0}, {1}})
	if co != 100 || split != 200 {
		t.Fatalf("co=%v split=%v, want 100/200", co, split)
	}
}

func TestEvaluateUnshareableAlwaysPaid(t *testing.T) {
	// SW=0 classes pay full freight even when co-assigned (the model
	// repair of DESIGN.md).
	in := &Instance{
		NumPartitions: 2, NumGroups: 1, NumStreams: 1,
		LatP: []float64{1, 1}, LatProc: 0,
	}
	for c := 0; c < 2; c++ {
		in.Classes = append(in.Classes, Class{Weight: 1, Streams: []ClassStream{{
			Stream: 0, Card: []float64{100}, SW: []float64{0},
		}}})
	}
	if co := Evaluate(in, [][]int{{0}, {0}}); co != 200 {
		t.Fatalf("co-assigned unshareable cost %v, want 200", co)
	}
}

func TestClassWeightScalesMakespanOnly(t *testing.T) {
	mk := func(w float64) *Instance {
		return &Instance{
			NumPartitions: 1, NumGroups: 1, NumStreams: 1,
			LatP: []float64{1}, LatProc: 1,
			Classes: []Class{{Weight: w, Streams: []ClassStream{{
				Stream: 0, Card: []float64{100}, SW: []float64{0},
			}}}},
		}
	}
	c1 := Evaluate(mk(1), [][]int{{0}})
	c5 := Evaluate(mk(5), [][]int{{0}})
	// Traffic (100) identical — one wire copy serves all identical
	// queries; makespan term scales 100 -> 500.
	if c1 != 200 || c5 != 600 {
		t.Fatalf("weight scaling wrong: w=1 %v (want 200), w=5 %v (want 600)", c1, c5)
	}
}
