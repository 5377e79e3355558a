package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
	"saspar/internal/parallel"
)

// TestCascadePinned pins the cascade's outcome on two anchored shapes
// under DeterministicBudget: the 14-class serving shape of the tpch
// benchmark, which runs all three iterations, and the one-class shape of
// the open-loop aggregation benchmark. The plans, objectives and bound
// gaps are the ones the cascade produced when every iteration still
// re-solved the model the previous iteration's merge had just solved at
// the same gap (8 solves and 160 008 nodes, 4 solves and 60 003 nodes);
// solving each (model, gap) once removes exactly those repeats and
// changes nothing else.
func TestCascadePinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		req        *Request
		solves     int
		nodes      int64
		heuristics string
		via        string
		objective  float64
		boundGap   float64
		assign     string
	}{
		{
			name: "14x32x8", req: cascadeRequest(37, 14),
			solves: 6, nodes: 120006,
			heuristics: "opt_gap,timeout,merge_keys,tree_opt",
			objective:  14813.097717442653, boundGap: 0.49590020779143734,
			assign: strings.TrimSpace(strings.Repeat("22775404452006431116631673052753 ", 14)),
		},
		{
			name: "1x32x8", req: cascadeRequest(38, 1),
			solves: 3, nodes: 40002,
			heuristics: "opt_gap,timeout,merge_keys", via: "merge_keys",
			objective: 1733.7024999999999, boundGap: 0.1409626719056975,
			assign: "22472600256537431071635643514701",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			moveCost := make([]float64, len(tc.req.Queries))
			for i := range moveCost {
				moveCost[i] = 0.01
			}
			res, err := Optimize(tc.req, Options{
				DeterministicBudget: true, MaxNodes: 20000,
				Anchor: ringAnchor(tc.req), MoveCost: moveCost,
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, len(res.Assign))
			for qi, a := range res.Assign {
				var b strings.Builder
				for g := 0; g < tc.req.NumGroups; g++ {
					fmt.Fprint(&b, a.Partition(keyspace.GroupID(g)))
				}
				rows[qi] = b.String()
			}
			assign := strings.Join(rows, " ")
			heur := strings.Join(res.Heuristics, ",")
			if res.Solves != tc.solves || res.Nodes != tc.nodes {
				t.Errorf("%d solves, %d nodes; want %d, %d", res.Solves, res.Nodes, tc.solves, tc.nodes)
			}
			if heur != tc.heuristics || res.SucceededVia != tc.via {
				t.Errorf("via %q (%s); want %q (%s)", res.SucceededVia, heur, tc.via, tc.heuristics)
			}
			if res.Objective != tc.objective || res.BoundGap != tc.boundGap {
				t.Errorf("objective %v, bound gap %v; want %v, %v", res.Objective, res.BoundGap, tc.objective, tc.boundGap)
			}
			if assign != tc.assign {
				t.Errorf("assign\n %s\nwant\n %s", assign, tc.assign)
			}
		})
	}
}

// TestCascadeStepsEngage sizes one instance just past the bound that
// gates each step of the cascade and checks, under a small node cap,
// that the step runs; on an instance sized at the bound the step is not
// even planned. Merged key groups need more groups than partitions,
// merged partitions more than numNodes partitions, tree optimization
// more than treeThreshold classes and hybrid execution more than
// hybridThreshold.
func TestCascadeStepsEngage(t *testing.T) {
	type shape struct{ queries, groups, partitions int }
	opt := Options{DeterministicBudget: true, MaxNodes: 10}
	for _, tc := range []struct {
		step     string
		past, at shape
	}{
		{HeurOptGap, shape{4, 8, 8}, shape{}},
		{HeurMergeKeys, shape{4, 9, 8}, shape{4, 8, 8}},
		{HeurMergePar, shape{4, 9, numNodes + 1}, shape{4, 9, numNodes}},
		{HeurTreeOpt, shape{treeThreshold + 1, 8, 8}, shape{treeThreshold, 8, 8}},
		{HeurHybridExec, shape{hybridThreshold + 1, 8, 8}, shape{hybridThreshold, 8, 8}},
	} {
		res, err := Optimize(testRequest(11, tc.past.queries, tc.past.groups, tc.past.partitions), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Heuristics, tc.step) {
			t.Errorf("%s did not run at %+v: %v", tc.step, tc.past, res.Heuristics)
		}
		if tc.at == (shape{}) {
			continue
		}
		req := testRequest(11, tc.at.queries, tc.at.groups, tc.at.partitions)
		_, planned := planCascade(req, opt.withDefaults(), ExportInstance(req), mip.Options{})
		if slices.Contains(planned, tc.step) {
			t.Errorf("%s planned at %+v: %v", tc.step, tc.at, planned)
		}
	}
}

// cascadeRequest is a 32-group, 8-partition request whose processing
// latency outweighs its traffic, so the traffic-only root bound leaves
// every capped solve outside the cascade's widest gap.
func cascadeRequest(seed int64, queries int) *Request {
	req := testRequest(seed, queries, 32, 8)
	req.LatProc = 1
	return req
}

// TestCascadeDiscardsSpeculativeSolves runs a cascade whose first solve
// proves optimality, once at width 1 and once at width 2. At width 2 a
// helper runs the next planned solve beside the first; the result must
// neither count it nor return while it runs, and its token must be back.
func TestCascadeDiscardsSpeculativeSolves(t *testing.T) {
	defer parallel.SetBudget(-1)
	req := testRequest(3, 2, 10, 3)
	opt := Options{DeterministicBudget: true, MaxNodes: 1000000}
	run := func(budget int) *Result {
		parallel.SetBudget(budget)
		res, err := Optimize(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(0), run(1)
	if par.Solves != 1 || par.SucceededVia != HeurOptGap || !par.Exact || par.BoundGap != 0 {
		t.Fatalf("width 2: %d solves via %q, exact %v, bound gap %v; want 1 optimal solve via %q",
			par.Solves, par.SucceededVia, par.Exact, par.BoundGap, HeurOptGap)
	}
	if par.Nodes != seq.Nodes || par.Objective != seq.Objective {
		t.Errorf("width 2: %d nodes, objective %v; width 1: %d, %v", par.Nodes, par.Objective, seq.Nodes, seq.Objective)
	}
	if got := parallel.AcquireTokens(parallel.Budget()); got != parallel.Budget() {
		t.Errorf("after Optimize returned, %d of %d tokens free", got, parallel.Budget())
	} else {
		parallel.ReleaseTokens(got)
	}
}
