package mip

import (
	"testing"
)

// solveFixture is the shape the serving benchmark solves every round:
// one class, 32 key groups, 8 partitions, anchored with a movement
// bill, stopped by a node cap and never by the clock.
func solveFixture() (*Instance, Options) {
	in := randInstance(16, 1, 32, 8)
	prefer := [][]int{make([]int, in.NumGroups)}
	for g := range prefer[0] {
		prefer[0][g] = g % in.NumPartitions
	}
	return in, Options{MaxNodes: 50000, Prefer: prefer, MoveCost: []float64{0.01}}
}

// The search orders candidates by a strict total order (key, is-anchor,
// partition id), so how the order is produced cannot change which nodes
// are visited: the counts below are what sort.Slice produced before the
// per-depth buffers replaced it.
func TestSolveNodeCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    *Instance
		opt   Options
		nodes int64
		obj   float64
	}{
		{"rand-2x6x3", randInstance(7, 2, 6, 3), Options{}, 2814, 496.1455352018558},
		{"join-2x6x3", joinInstance(3, 2, 6, 3), Options{}, 3300, 770.2281308470651},
		{"budget-4x16x8", randInstance(9, 4, 16, 8), Options{MaxNodes: 2000}, 2001, 1330.5493064148745},
	} {
		res, err := Solve(tc.in, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes != tc.nodes || res.Objective != tc.obj {
			t.Errorf("%s: %d nodes, objective %v; want %d, %v", tc.name, res.Nodes, res.Objective, tc.nodes, tc.obj)
		}
	}
	in, opt := solveFixture()
	res, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 50001 || res.Objective != 713.8900000000001 || res.Status != Budget {
		t.Errorf("fixture: %d nodes, objective %v, %v; want 50001, 713.8900000000001, budget", res.Nodes, res.Objective, res.Status)
	}
}

// TestSolveAllocsIndependentOfNodes: a solve allocates its working
// state once; the search itself allocates nothing, so the count does
// not grow with the node budget.
func TestSolveAllocsIndependentOfNodes(t *testing.T) {
	in, opt := solveFixture()
	allocs := func(maxNodes int64) float64 {
		o := opt
		o.MaxNodes = maxNodes
		return testing.AllocsPerRun(3, func() {
			if _, err := Solve(in, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(50000)
	if small != large {
		t.Fatalf("Solve allocates %v times at 500 nodes and %v at 50000: the search allocates per node", small, large)
	}
}

func BenchmarkSolve(b *testing.B) {
	in, opt := solveFixture()
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(in, opt)
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkSolveClasses is the many-class shape (14 classes, like the
// 14 tpch queries of the virt-tpch benchmark), where the remainder
// bound has the most undecided classes to sum.
func BenchmarkSolveClasses(b *testing.B) {
	in := randInstance(21, 14, 32, 8)
	opt := Options{MaxNodes: 50000}
	var nodes int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(in, opt)
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// TestEvaluateAllocsIndependentOfGroups: Evaluate's per-group
// accumulators are allocated once and cleared per group, so its
// allocation count does not grow with the number of groups.
func TestEvaluateAllocsIndependentOfGroups(t *testing.T) {
	allocs := func(groups int) float64 {
		in := randInstance(5, 3, groups, 8)
		assign := make([][]int, len(in.Classes))
		for ci := range assign {
			assign[ci] = make([]int, groups)
			for g := range assign[ci] {
				assign[ci][g] = (ci + g) % in.NumPartitions
			}
		}
		return testing.AllocsPerRun(10, func() { Evaluate(in, assign) })
	}
	if small, large := allocs(4), allocs(64); small != large {
		t.Fatalf("Evaluate allocates %v times at 4 groups and %v at 64: it allocates per group", small, large)
	}
}
