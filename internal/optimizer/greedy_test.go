package optimizer

import (
	"testing"
	"time"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
)

// forceGreedy dispatches every instance to the standalone greedy tier.
const forceGreedy = 1

func TestGreedyStandaloneFeasibleAndScored(t *testing.T) {
	req := testRequest(80, 4, 256, 8)
	res, err := Optimize(req, Options{GreedyThreshold: forceGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if res.SucceededVia != HeurGreedy {
		t.Fatalf("via = %q, want %q", res.SucceededVia, HeurGreedy)
	}
	if res.Solves != 0 || res.Exact {
		t.Fatalf("greedy tier ran MIP solves (%d) or claimed exactness (%v)", res.Solves, res.Exact)
	}
	for qi, a := range res.Assign {
		if a == nil || !a.Complete() {
			t.Fatalf("query %d assignment missing or incomplete", qi)
		}
		for g := 0; g < req.NumGroups; g++ {
			p := int(a.Partition(keyspace.GroupID(g)))
			if p < 0 || p >= req.NumPartitions {
				t.Fatalf("query %d group %d on partition %d", qi, g, p)
			}
		}
	}
	scored, err := Score(req, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if diff := scored - res.Objective; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("greedy objective %v != Score %v", res.Objective, scored)
	}
}

func TestGreedyStandaloneDeterministic(t *testing.T) {
	req := testRequest(81, 3, 512, 16)
	first, err := Optimize(req, Options{GreedyThreshold: forceGreedy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Optimize(req, Options{GreedyThreshold: forceGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if again.Objective != first.Objective {
			t.Fatalf("run %d objective %v != %v", i, again.Objective, first.Objective)
		}
		for qi := range first.Assign {
			for g := 0; g < req.NumGroups; g++ {
				a := first.Assign[qi].Partition(keyspace.GroupID(g))
				b := again.Assign[qi].Partition(keyspace.GroupID(g))
				if a != b {
					t.Fatalf("run %d query %d group %d: %d != %d", i, qi, g, a, b)
				}
			}
		}
	}
}

// The standalone dispatch threshold: big instances go greedy, small
// ones keep the cascade, MIPOnly never dispatches.
func TestGreedyThresholdDispatch(t *testing.T) {
	req := testRequest(82, 2, 64, 4) // 256 cells
	res, err := Optimize(req, Options{GreedyThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.SucceededVia != HeurGreedy {
		t.Fatalf("at threshold: via = %q, want greedy", res.SucceededVia)
	}
	res, err = Optimize(req, Options{GreedyThreshold: 257, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SucceededVia == HeurGreedy {
		t.Fatal("below threshold dispatched standalone greedy")
	}
	res, err = Optimize(req, Options{GreedyThreshold: 1, MIPOnly: true, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SucceededVia == HeurGreedy || res.Solves == 0 {
		t.Fatal("MIPOnly dispatched standalone greedy")
	}
}

// The greedy seed is an upper bound the cascade can only improve on:
// a seeded solve never returns a plan worse than the seed itself, and
// when both seeded and unseeded solves prove optimality they agree.
// (Under a node budget the two runs may part ways — tighter pruning
// spends the budget elsewhere — so only exact solves are compared.)
func TestGreedySeedNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		req := testRequest(90+seed, 3, 24, 4)
		greedy, err := Optimize(req, Options{GreedyThreshold: forceGreedy})
		if err != nil {
			t.Fatal(err)
		}
		with, err := Optimize(req, Options{DeterministicBudget: true})
		if err != nil {
			t.Fatal(err)
		}
		if with.Objective > greedy.Objective+1e-9 {
			t.Fatalf("seed %d: cascade objective %v worse than its greedy seed %v", seed, with.Objective, greedy.Objective)
		}
		opt := Options{DeterministicBudget: true}.withDefaults()
		c := components(req)[0]
		without := solveComponentInner(req, c, opt, buildInstance(req, c), buildAnchor(req, c, opt), nil)
		if with.Exact && without.exact {
			if diff := with.Objective - without.objective; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d: exact solves disagree: seeded %v vs unseeded %v", seed, with.Objective, without.objective)
			}
		}
	}
}

// Crash-shrunk domains: the greedy tier must honor AllowedPartitions,
// and a stale anchor spread over the full (pre-crash) domain must not
// leak excluded partitions into the plan.
func TestGreedyHonorsAllowedPartitions(t *testing.T) {
	req := testRequest(83, 3, 128, 8)
	anchor := ringAnchor(req) // spreads groups over all 8 partitions
	allowed := make([]bool, req.NumPartitions)
	allowed[1], allowed[3], allowed[4] = true, true, true

	res, err := Optimize(req, Options{
		GreedyThreshold:   forceGreedy,
		Anchor:            anchor,
		MoveCost:          []float64{0.5, 0.5, 0.5},
		AllowedPartitions: allowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SucceededVia != HeurGreedy {
		t.Fatalf("via = %q, want greedy", res.SucceededVia)
	}
	for qi, a := range res.Assign {
		if !a.Complete() {
			t.Fatalf("query %d incomplete under restricted domain", qi)
		}
		for g := 0; g < req.NumGroups; g++ {
			p := int(a.Partition(keyspace.GroupID(g)))
			if p < 0 || p >= req.NumPartitions || !allowed[p] {
				t.Fatalf("query %d group %d on excluded partition %d", qi, g, p)
			}
		}
	}
}

// Same shrink, cascade path: the greedy seed inside B&B must not anchor
// the restricted solve to the stale full-domain incumbent.
func TestGreedySeedUnderShrunkDomain(t *testing.T) {
	req := testRequest(84, 2, 32, 6)
	anchor := ringAnchor(req)
	allowed := []bool{true, false, true, true, false, true}
	res, err := Optimize(req, Options{
		Timeout:           2 * time.Second,
		Anchor:            anchor,
		MoveCost:          []float64{0.5, 0.5},
		AllowedPartitions: allowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, a := range res.Assign {
		for g := 0; g < req.NumGroups; g++ {
			p := int(a.Partition(keyspace.GroupID(g)))
			if p < 0 || !allowed[p] {
				t.Fatalf("query %d group %d on excluded partition %d", qi, g, p)
			}
		}
	}
}

// An out-of-domain incumbent handed straight to the solver is dropped,
// not trusted: the solve still returns a feasible in-domain plan.
func TestMIPIncumbentOutOfDomainIgnored(t *testing.T) {
	req := testRequest(85, 2, 8, 3)
	inst := ExportInstance(req)
	stale := make([][]int, len(inst.Classes))
	for ci := range stale {
		stale[ci] = make([]int, inst.NumGroups)
		for g := range stale[ci] {
			stale[ci][g] = inst.NumPartitions + 1 // beyond the shrunk domain
		}
	}
	res, err := mip.Solve(inst, mip.Options{MaxNodes: 50000, Incumbent: stale})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range res.Assign {
		for g, p := range res.Assign[ci] {
			if p < 0 || p >= inst.NumPartitions {
				t.Fatalf("class %d group %d landed on %d from a stale incumbent", ci, g, p)
			}
		}
	}
	short := [][]int{make([]int, inst.NumGroups)}
	if _, err := mip.Solve(inst, mip.Options{Incumbent: short}); err == nil {
		t.Fatal("mis-shaped incumbent accepted")
	}
}

// The acceptance-scale instance: 64 partitions × 100k groups must solve
// well inside one optimizer interval (the paper's 4s Fig. 8a budget).
func TestGreedyScaleInsideOptimizerInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	req := testRequest(88, 8, 100_000, 64)
	start := time.Now()
	res, err := Optimize(req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.SucceededVia != HeurGreedy {
		t.Fatalf("100k-group instance solved via %q, want greedy tier", res.SucceededVia)
	}
	if elapsed > 4*time.Second && !raceEnabled {
		t.Fatalf("greedy tier took %v, want < 4s (one optimizer interval)", elapsed)
	}
	for qi, a := range res.Assign {
		if !a.Complete() {
			t.Fatalf("query %d incomplete", qi)
		}
	}
}
