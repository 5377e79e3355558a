package optimizer

import (
	"math/rand"
	"testing"
	"time"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
)

// testRequest builds a request with `queries` aggregation classes over
// one stream, random stats.
func testRequest(seed int64, queries, groups, partitions int) *Request {
	rng := rand.New(rand.NewSource(seed))
	req := &Request{
		NumPartitions: partitions,
		NumGroups:     groups,
		NumStreams:    1,
		LocalFrac:     make([]float64, partitions),
		LatNet:        1.0,
		LatMem:        0.01,
		LatProc:       0.3,
	}
	for p := range req.LocalFrac {
		req.LocalFrac[p] = 0.125
	}
	for q := 0; q < queries; q++ {
		in := InputStats{Stream: 0, Card: make([]float64, groups), SW: make([]float64, groups)}
		for g := 0; g < groups; g++ {
			in.Card[g] = float64(rng.Intn(90) + 10)
			in.SW[g] = rng.Float64()
		}
		req.Queries = append(req.Queries, QueryStats{ID: "q", Weight: 1, Inputs: []InputStats{in}})
	}
	return req
}

func TestValidateRequest(t *testing.T) {
	good := testRequest(1, 2, 4, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good request rejected: %v", err)
	}
	bad := []func(*Request){
		func(r *Request) { r.NumPartitions = 0 },
		func(r *Request) { r.LocalFrac = nil },
		func(r *Request) { r.LatNet = r.LatMem },
		func(r *Request) { r.Queries = nil },
		func(r *Request) { r.Queries[0].Weight = 0 },
		func(r *Request) { r.Queries[0].Inputs[0].Stream = 7 },
		func(r *Request) { r.Queries[0].Inputs[0].Card = nil },
	}
	for i, mut := range bad {
		r := testRequest(1, 2, 4, 2)
		mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestOptimizeSmallExact(t *testing.T) {
	req := testRequest(1, 2, 4, 2)
	res, err := Optimize(req, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("small instance not solved exactly (heuristics: %v)", res.Heuristics)
	}
	if len(res.Assign) != 2 {
		t.Fatalf("got %d assignments, want 2", len(res.Assign))
	}
	for qi, a := range res.Assign {
		if a == nil || !a.Complete() {
			t.Fatalf("query %d assignment incomplete", qi)
		}
	}
	if res.Objective <= 0 {
		t.Fatal("non-positive objective")
	}
}

func TestFullySharingQueriesCoAssigned(t *testing.T) {
	req := testRequest(1, 2, 4, 2)
	for q := range req.Queries {
		for g := 0; g < req.NumGroups; g++ {
			req.Queries[q].Inputs[0].Card[g] = 100
			req.Queries[q].Inputs[0].SW[g] = 1
		}
	}
	res, err := Optimize(req, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < req.NumGroups; g++ {
		if res.Assign[0].Partition(keyspace.GroupID(g)) != res.Assign[1].Partition(keyspace.GroupID(g)) {
			t.Fatalf("group %d not co-assigned for fully sharing queries", g)
		}
	}
}

func TestComponentsSplitIndependentStreams(t *testing.T) {
	// Queries over disjoint streams form separate components; a join
	// bridges streams into one component.
	req := &Request{
		NumPartitions: 2, NumGroups: 4, NumStreams: 3,
		LocalFrac: []float64{0, 0}, LatNet: 1, LatMem: 0.01, LatProc: 0.1,
	}
	mkIn := func(s int) InputStats {
		in := InputStats{Stream: s, Card: make([]float64, 4), SW: make([]float64, 4)}
		for g := range in.Card {
			in.Card[g] = 10
		}
		return in
	}
	req.Queries = []QueryStats{
		{ID: "a", Weight: 1, Inputs: []InputStats{mkIn(0)}},
		{ID: "b", Weight: 1, Inputs: []InputStats{mkIn(1)}},
		{ID: "j", Weight: 1, Inputs: []InputStats{mkIn(1), mkIn(2)}}, // couples streams 1,2
	}
	comps := components(req)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, len(c.queries))
	}
	if !(sizes[0] == 1 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 1) {
		t.Fatalf("component sizes %v, want 1 and 2", sizes)
	}
	// Full optimize must cover all three queries.
	res, err := Optimize(req, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for qi, a := range res.Assign {
		if a == nil || !a.Complete() {
			t.Fatalf("query %d unassigned", qi)
		}
	}
}

func TestHeuristicsEngageUnderTinyBudget(t *testing.T) {
	req := testRequest(2, 12, 32, 16)
	res, err := Optimize(req, Options{
		Timeout:  5 * time.Millisecond,
		MaxNodes: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("a 500-node budget cannot reach the 5% gap on 12q/32g/16p")
	}
	if len(res.Heuristics) < 3 {
		t.Fatalf("heuristic cascade too short: %v", res.Heuristics)
	}
	seen := map[string]bool{}
	for _, h := range res.Heuristics {
		seen[h] = true
	}
	if !seen[HeurMergeKeys] || !seen[HeurTreeOpt] {
		t.Fatalf("expected merge_keys and tree_opt in %v", res.Heuristics)
	}
	for qi, a := range res.Assign {
		if a == nil || !a.Complete() {
			t.Fatalf("query %d left unassigned after cascade", qi)
		}
	}
}

func TestHybridEngagesAboveThreshold(t *testing.T) {
	req := testRequest(3, 40, 16, 8)
	res, err := Optimize(req, Options{
		Timeout:  5 * time.Millisecond,
		MaxNodes: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range res.Heuristics {
		seen[h] = true
	}
	if !seen[HeurHybridExec] {
		t.Fatalf("hybrid execution not engaged: %v", res.Heuristics)
	}
}

func TestMIPOnlyMode(t *testing.T) {
	req := testRequest(5, 2, 4, 2)
	res, err := Optimize(req, Options{MIPOnly: true, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Solves != 1 {
		t.Fatalf("MIP-only small solve: exact=%v solves=%d", res.Exact, res.Solves)
	}
	if len(res.Heuristics) != 0 {
		t.Fatalf("MIP-only ran heuristics: %v", res.Heuristics)
	}
}

func TestHeuristicObjectiveWithinFactorOfExact(t *testing.T) {
	// Fig. 8b's accuracy metric: heuristic objective vs exact objective.
	req := testRequest(6, 3, 8, 4)
	exact, err := Optimize(req, Options{MIPOnly: true, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Optimize(req, Options{Timeout: 20 * time.Millisecond, MaxNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if heur.Objective < exact.Objective-1e-9 {
		t.Fatalf("heuristic objective %v beats exact %v", heur.Objective, exact.Objective)
	}
	if acc := exact.Objective / heur.Objective; acc < 0.4 {
		t.Fatalf("heuristic accuracy %v unreasonably poor", acc)
	}
}

func TestMergeGroupsStatistics(t *testing.T) {
	in := &mip.Instance{
		NumPartitions: 2, NumGroups: 4, NumStreams: 1,
		LatP: []float64{1, 1}, LatProc: 0.1,
		Classes: []mip.Class{{Weight: 1, Streams: []mip.ClassStream{{
			Stream: 0,
			Card:   []float64{10, 30, 0, 20},
			SW:     []float64{1, 0.5, 0, 0.25},
		}}}},
	}
	out, m := mergeGroups(in, identityMap(4), 2)
	if out.NumGroups != 2 {
		t.Fatalf("merged to %d groups, want 2", out.NumGroups)
	}
	cs := out.Classes[0].Streams[0]
	if cs.Card[0] != 40 || cs.Card[1] != 20 {
		t.Fatalf("merged cards %v, want [40 20]", cs.Card)
	}
	// SW: (10*1 + 30*0.5) / 40 = 0.625 and (0*0 + 20*0.25)/20 = 0.25.
	if cs.SW[0] != 0.625 || cs.SW[1] != 0.25 {
		t.Fatalf("merged SW %v, want [0.625 0.25]", cs.SW)
	}
	if m[0] != 0 || m[1] != 0 || m[2] != 1 || m[3] != 1 {
		t.Fatalf("group map %v, want [0 0 1 1]", m)
	}
}

func TestMergeClassPair(t *testing.T) {
	a := mip.Class{Label: "a", Weight: 1, Streams: []mip.ClassStream{{
		Stream: 0, Card: []float64{10, 20}, SW: []float64{1, 0},
	}}}
	b := mip.Class{Label: "b", Weight: 2, Streams: []mip.ClassStream{{
		Stream: 0, Card: []float64{30, 20}, SW: []float64{0.5, 1},
	}}}
	m := mergeClassPair(a, b)
	if m.Weight != 3 {
		t.Fatalf("merged weight %v, want 3", m.Weight)
	}
	cs := m.Streams[0]
	if cs.Card[0] != 30 || cs.Card[1] != 20 {
		t.Fatalf("merged cards %v, want max [30 20]", cs.Card)
	}
}

func TestOptimizerImprovesOnRoundRobinBaseline(t *testing.T) {
	// Sanity: the optimized assignment must score no worse than the
	// consistent-hashing initial assignment under the exact model.
	req := testRequest(7, 4, 8, 4)
	res, err := Optimize(req, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	inst := buildInstance(req, components(req)[0])
	ring := keyspace.NewRing(req.NumPartitions, 16)
	init := ring.InitialAssignment(keyspace.NewSpace(req.NumGroups))
	baseline := make([][]int, len(req.Queries))
	for qi := range baseline {
		baseline[qi] = make([]int, req.NumGroups)
		for g := 0; g < req.NumGroups; g++ {
			baseline[qi][g] = int(init.Partition(keyspace.GroupID(g)))
		}
	}
	if base := mip.Evaluate(inst, baseline); res.Objective > base+1e-9 {
		t.Fatalf("optimizer result %v worse than ring baseline %v", res.Objective, base)
	}
}

func TestAllowedPartitionsExcludesDeadNodes(t *testing.T) {
	// Degraded-mode solve: partitions on crashed nodes are masked out of
	// the placement domain, the returned plan uses only live partitions
	// (in full partition ids), and anchors pointing at masked partitions
	// do not wedge the solve or charge a movement penalty.
	req := testRequest(3, 2, 16, 8)
	anchor := make([]*keyspace.Assignment, len(req.Queries))
	for qi := range anchor {
		a := keyspace.NewAssignment(req.NumGroups)
		for g := 0; g < req.NumGroups; g++ {
			a.Set(keyspace.GroupID(g), keyspace.PartitionID(g%req.NumPartitions))
		}
		anchor[qi] = a
	}
	allowed := make([]bool, req.NumPartitions)
	for p := range allowed {
		allowed[p] = p != 3 && p != 7 // node 3 of a 4-node round-robin placement
	}
	res, err := Optimize(req, Options{
		Timeout:           5 * time.Second,
		Anchor:            anchor,
		MoveCost:          []float64{0.5, 0.5},
		AllowedPartitions: allowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, a := range res.Assign {
		if a == nil || !a.Complete() {
			t.Fatalf("query %d assignment incomplete", qi)
		}
		for g := 0; g < req.NumGroups; g++ {
			p := a.Partition(keyspace.GroupID(g))
			if int(p) >= req.NumPartitions {
				t.Fatalf("query %d group %d mapped to out-of-range partition %d", qi, g, p)
			}
			if !allowed[p] {
				t.Fatalf("query %d group %d placed on excluded partition %d", qi, g, p)
			}
		}
	}
	if res.Objective <= 0 {
		t.Fatal("non-positive objective")
	}

	// Shape errors must surface, not panic.
	if _, err := Optimize(req, Options{AllowedPartitions: make([]bool, 3)}); err == nil {
		t.Fatal("mis-sized AllowedPartitions accepted")
	}
	if _, err := Optimize(req, Options{AllowedPartitions: make([]bool, req.NumPartitions)}); err == nil {
		t.Fatal("all-false AllowedPartitions accepted")
	}

	// An all-true mask must behave exactly like no mask.
	all := make([]bool, req.NumPartitions)
	for p := range all {
		all[p] = true
	}
	opts := Options{DeterministicBudget: true, MaxNodes: 20000}
	base, err := Optimize(testRequest(3, 2, 16, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AllowedPartitions = all
	masked, err := Optimize(testRequest(3, 2, 16, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range base.Assign {
		for g := 0; g < req.NumGroups; g++ {
			if base.Assign[qi].Partition(keyspace.GroupID(g)) != masked.Assign[qi].Partition(keyspace.GroupID(g)) {
				t.Fatalf("all-true mask changed the plan at query %d group %d", qi, g)
			}
		}
	}
}
