// Package optimizer implements the SASPAR optimizer: it turns collected
// statistics into mip.Instance problems (Section II), runs them —
// streams in parallel where independent — and applies the heuristic
// cascade of Algorithm 1 (Section IV) when the exact solver cannot
// finish within its budget: widen the optimality gap, merge key groups,
// merge partitions, tree-optimize, and fall back to hybrid execution.
// The cascade is fixed: its iteration count, starting gap and size
// thresholds are the package constants below, and callers choose only
// how each solve is bounded (a time budget or a node cap).
//
// The cascade is planned before anything is solved: which models it
// solves never depends on an earlier solve's result, only where it
// stops does. Under DeterministicBudget the planned solves run two at a
// time when the process budget (internal/parallel) has a token free,
// and are consumed in plan order, so plans and counts do not depend on
// the width; time-budgeted cascades run one solve at a time.
package optimizer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
)

// InputStats is one stream read by a query class, with its per-group
// statistics from the collector (or the ML model).
type InputStats struct {
	Stream int
	Card   []float64
	SW     []float64
}

// QueryStats is one canonical query class: identical queries are
// grouped by the caller with Weight = count, so the optimizer's
// decision count tracks distinct signatures rather than raw queries.
type QueryStats struct {
	ID     string
	Weight float64
	Inputs []InputStats
}

// Request is one optimization round over the whole workload.
type Request struct {
	NumPartitions int
	NumGroups     int
	NumStreams    int

	// LocalFrac[p] is the fraction of source traffic co-located with
	// partition p; it blends LatNet/LatMem into the per-partition
	// latency coefficient of Table I.
	LocalFrac []float64
	LatNet    float64
	LatMem    float64
	LatProc   float64

	Queries []QueryStats
}

// Validate checks the request shape.
func (r *Request) Validate() error {
	if r.NumPartitions <= 0 || r.NumGroups <= 0 || r.NumStreams <= 0 {
		return fmt.Errorf("optimizer: non-positive dimensions")
	}
	if len(r.LocalFrac) != r.NumPartitions {
		return fmt.Errorf("optimizer: LocalFrac has %d entries, want %d", len(r.LocalFrac), r.NumPartitions)
	}
	if r.LatNet <= r.LatMem {
		return fmt.Errorf("optimizer: LatNet must exceed LatMem")
	}
	if len(r.Queries) == 0 {
		return fmt.Errorf("optimizer: no queries")
	}
	for qi, q := range r.Queries {
		if q.Weight < 1 {
			return fmt.Errorf("optimizer: query %d weight %v", qi, q.Weight)
		}
		if len(q.Inputs) == 0 {
			return fmt.Errorf("optimizer: query %d has no inputs", qi)
		}
		for _, in := range q.Inputs {
			if in.Stream < 0 || in.Stream >= r.NumStreams {
				return fmt.Errorf("optimizer: query %d reads unknown stream %d", qi, in.Stream)
			}
			if len(in.Card) != r.NumGroups || len(in.SW) != r.NumGroups {
				return fmt.Errorf("optimizer: query %d stats cover %d/%d groups, want %d",
					qi, len(in.Card), len(in.SW), r.NumGroups)
			}
		}
	}
	return nil
}

// latP derives the per-partition latency coefficients.
func (r *Request) latP() []float64 {
	out := make([]float64, r.NumPartitions)
	for p := range out {
		out[p] = r.LatNet*(1-r.LocalFrac[p]) + r.LatMem*r.LocalFrac[p]
	}
	return out
}

// Heuristic names for tracing and for crediting the step that produced
// a plan (Fig. 12a's success attribution).
const (
	HeurOptGap     = "opt_gap"
	HeurTimeout    = "timeout"
	HeurMergeKeys  = "merge_keys"
	HeurMergePar   = "merge_par"
	HeurTreeOpt    = "tree_opt"
	HeurHybridExec = "hybrid_exec"
	HeurGreedy     = "greedy"
)

// Algorithm 1's fixed cascade (Section IV).
const (
	iterMax = 3    // cascade iterations
	optGap  = 0.05 // relative gap of the first solve
	// treeThreshold triggers tree optimization above this many classes;
	// it is also the class count of one hybrid-execution group.
	treeThreshold = 8
	// hybridThreshold triggers hybrid execution above this many classes.
	hybridThreshold = 32
	// numNodes floors partition merging at the paper's 8-node testbed.
	numNodes = 8
)

// DefaultGreedyThreshold is the groups × partitions product at which
// the streaming greedy tier takes over from the B&B cascade. Below it
// B&B finishes (or degrades gracefully) inside one optimizer interval;
// above it even the cascade's reductions thrash, while one greedy pass
// stays O(groups × partitions).
const DefaultGreedyThreshold = 1 << 17

// Options control Algorithm 1.
type Options struct {
	// Timeout is the per-MIP-invocation time budget (default 4s, the
	// paper's Fig. 8a setting).
	Timeout time.Duration
	// MIPOnly disables the whole cascade: one exact solve with the time
	// budget (the "MIP" series of Fig. 8a).
	MIPOnly bool
	// MaxNodes caps solver nodes per invocation (0 = time budget only).
	MaxNodes int64
	// DeterministicBudget replaces every wall-clock cutoff in the
	// cascade (MIP time budgets, descent deadlines) with work-based
	// caps: MaxNodes bounds each solve, pass counts bound the descent.
	// Termination then depends only on the instance, so results are
	// bit-reproducible across runs, machines and CPU contention — the
	// mode the parallel-equivalence test runs the harnesses under.
	// Timeout is ignored; MaxNodes defaults to 200000 when unset. The
	// cascade's planned solves may then run two at a time, which
	// changes when a round finishes, never what it returns.
	DeterministicBudget bool
	// Anchor supplies the running assignments (one per request query):
	// the solver prefers them on ties, so returned plans are
	// incremental key-group updates (Fig. 3) rather than wholesale
	// re-shuffles. Heuristic reductions (merged groups/partitions,
	// tree, hybrid) search unanchored, but their candidate plans are
	// still scored with movement included.
	Anchor []*keyspace.Assignment
	// MoveCost is the amortized per-tuple cost of moving a key group's
	// window state away from its anchored partition, one entry per
	// request query (requires Anchor). The Result.Objective then
	// includes movement, directly comparable to Score of the incumbent.
	MoveCost []float64
	// GreedyThreshold dispatches instances with groups × partitions at
	// or above it to the streaming greedy tier instead of the B&B
	// cascade (0 = DefaultGreedyThreshold, negative = never standalone).
	// Below the threshold the greedy plan still seeds B&B as its
	// initial incumbent.
	GreedyThreshold int
	// AllowedPartitions, when non-nil, restricts the placement domain:
	// partitions with a false entry (crashed or derated nodes) receive
	// no key groups. The solver runs on the reduced partition set and
	// the result is mapped back to full partition ids; anchors on
	// excluded partitions become unanchored, so evacuating them carries
	// no movement penalty (their state is forfeit anyway). Must cover
	// NumPartitions entries with at least one true.
	AllowedPartitions []bool
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 4 * time.Second
	}
	if o.DeterministicBudget {
		// Timeout 0 disables every wall-clock deadline downstream; the
		// node cap becomes the sole solve limit.
		o.Timeout = 0
		if o.MaxNodes <= 0 {
			o.MaxNodes = 200000
		}
	}
	return o
}

// greedyStandalone reports whether the streaming greedy tier replaces
// the B&B cascade for this request size. MIPOnly keeps its "one exact
// solve" contract regardless of size.
func (o Options) greedyStandalone(req *Request) bool {
	if o.MIPOnly {
		return false
	}
	t := o.GreedyThreshold
	if t == 0 {
		t = DefaultGreedyThreshold
	}
	if t < 0 {
		return false
	}
	return req.NumGroups*req.NumPartitions >= t
}

// Result is one optimization round's outcome.
type Result struct {
	// Assign holds one assignment per request query (canonical class);
	// join queries use it for both inputs (Eq. 3).
	Assign []*keyspace.Assignment
	// Objective is the cost of the returned assignments under the exact
	// model (mip.Evaluate over the original, unreduced instances).
	Objective float64
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
	// Solves counts MIP invocations; Heuristics lists cascade steps
	// actually applied, in order.
	Solves     int
	Heuristics []string
	// Nodes is the total branch-and-bound nodes explored across all MIP
	// invocations of the round; BoundGap the largest relative optimality
	// gap any invocation finished with (0 = everything proven optimal).
	// Both feed the telemetry the control loop emits per trigger.
	Nodes    int64
	BoundGap float64
	// SucceededVia names the cascade step that produced an accepted
	// plan (of the last component to report one): a heuristic name,
	// HeurOptGap for a full-model success, or "" when every component
	// exhausted its cascade and returned the best incumbent.
	SucceededVia string
	// Exact reports whether every component was solved to optimality /
	// within the requested gap without heuristic reductions.
	Exact bool
}

// Optimize runs one optimization round.
func Optimize(req *Request, opt Options) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if opt.AllowedPartitions != nil {
		return optimizeRestricted(req, opt)
	}
	opt = opt.withDefaults()
	start := time.Now()

	comps := components(req)
	results := make([]*componentResult, len(comps))
	if len(comps) > 1 {
		// Heuristic 1: independent stream components solve in parallel.
		var wg sync.WaitGroup
		for i, c := range comps {
			wg.Add(1)
			go func(i int, c *component) {
				defer wg.Done()
				results[i] = solveComponent(req, c, opt)
			}(i, c)
		}
		wg.Wait()
	} else {
		for i, c := range comps {
			results[i] = solveComponent(req, c, opt)
		}
	}

	res := &Result{
		Assign: make([]*keyspace.Assignment, len(req.Queries)),
		Exact:  true,
	}
	seen := map[string]bool{}
	for _, cr := range results {
		res.Objective += cr.objective
		res.Solves += cr.stats.solves
		res.Nodes += cr.stats.nodes
		if cr.stats.gap > res.BoundGap {
			res.BoundGap = cr.stats.gap
		}
		res.Exact = res.Exact && cr.exact
		if res.SucceededVia == "" || cr.via != "" {
			res.SucceededVia = cr.via
		}
		for _, h := range cr.heuristics {
			if !seen[h] {
				seen[h] = true
				res.Heuristics = append(res.Heuristics, h)
			}
		}
		for i, qi := range cr.comp.queries {
			a := keyspace.NewAssignment(req.NumGroups)
			for g := 0; g < req.NumGroups; g++ {
				a.Set(keyspace.GroupID(g), keyspace.PartitionID(cr.assign[i][g]))
			}
			res.Assign[qi] = a
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// optimizeRestricted solves the request over the allowed partition
// subset and maps the plan back to full partition ids. A plan that uses
// only allowed partitions costs the same in both spaces — excluded
// partitions carry no groups, and anchors on them are dropped, so a
// forced evacuation pays no movement penalty (the state there is
// forfeit anyway) — so the result needs no rescoring.
func optimizeRestricted(req *Request, opt Options) (*Result, error) {
	allowed := opt.AllowedPartitions
	if len(allowed) != req.NumPartitions {
		return nil, fmt.Errorf("optimizer: AllowedPartitions covers %d partitions, want %d", len(allowed), req.NumPartitions)
	}
	keep, fwd := keyspace.SubsetIndex(allowed)
	if len(keep) == 0 {
		return nil, fmt.Errorf("optimizer: AllowedPartitions excludes every partition")
	}
	sub := opt
	sub.AllowedPartitions = nil
	if len(keep) == req.NumPartitions {
		return Optimize(req, sub)
	}

	rreq := *req
	rreq.NumPartitions = len(keep)
	rreq.LocalFrac = make([]float64, len(keep))
	for i, p := range keep {
		rreq.LocalFrac[i] = req.LocalFrac[p]
	}
	if opt.Anchor != nil {
		sub.Anchor = make([]*keyspace.Assignment, len(opt.Anchor))
		for i, a := range opt.Anchor {
			if a == nil {
				continue
			}
			sub.Anchor[i] = keyspace.ProjectAssignment(a, fwd)
		}
	}
	res, err := Optimize(&rreq, sub)
	if err != nil {
		return nil, err
	}
	for _, a := range res.Assign {
		if a == nil {
			continue
		}
		keyspace.LiftAssignment(a, keep)
	}
	return res, nil
}

// Score evaluates a complete set of assignments (one per request
// query) under the exact cost model — the objective the trigger policy
// compares against before swapping plans.
func Score(req *Request, assign []*keyspace.Assignment) (float64, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	if len(assign) != len(req.Queries) {
		return 0, fmt.Errorf("optimizer: %d assignments for %d queries", len(assign), len(req.Queries))
	}
	var total float64
	for _, c := range components(req) {
		inst := buildInstance(req, c)
		rows := make([][]int, len(c.queries))
		for i, qi := range c.queries {
			a := assign[qi]
			if a == nil || a.NumGroups() != req.NumGroups {
				return 0, fmt.Errorf("optimizer: assignment for query %d missing or mis-sized", qi)
			}
			row := make([]int, req.NumGroups)
			for g := 0; g < req.NumGroups; g++ {
				row[g] = int(a.Partition(keyspace.GroupID(g)))
			}
			rows[i] = row
		}
		total += mip.Evaluate(inst, rows)
	}
	return total, nil
}

// ExportInstance builds the mip.Instance of a single-component request
// — a diagnostics/ablation hook. It panics if the request splits into
// several independent components.
func ExportInstance(req *Request) *mip.Instance {
	comps := components(req)
	if len(comps) != 1 {
		panic(fmt.Sprintf("optimizer: ExportInstance on a %d-component request", len(comps)))
	}
	return buildInstance(req, comps[0])
}

// component is a maximal set of queries transitively connected through
// shared streams; independent components can be optimized in parallel
// (heuristic 1).
type component struct {
	queries []int // request query indexes
	streams []int // request stream ids, sorted
}

// components partitions the request with a union-find over streams.
func components(req *Request) []*component {
	parent := make([]int, req.NumStreams)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, q := range req.Queries {
		for i := 1; i < len(q.Inputs); i++ {
			union(q.Inputs[0].Stream, q.Inputs[i].Stream)
		}
	}
	byRoot := map[int]*component{}
	streamSeen := map[int]map[int]bool{}
	var order []int
	for qi, q := range req.Queries {
		root := find(q.Inputs[0].Stream)
		c := byRoot[root]
		if c == nil {
			c = &component{}
			byRoot[root] = c
			streamSeen[root] = map[int]bool{}
			order = append(order, root)
		}
		c.queries = append(c.queries, qi)
		for _, in := range q.Inputs {
			if !streamSeen[root][in.Stream] {
				streamSeen[root][in.Stream] = true
				c.streams = append(c.streams, in.Stream)
			}
		}
	}
	out := make([]*component, 0, len(order))
	for _, root := range order {
		c := byRoot[root]
		sort.Ints(c.streams)
		out = append(out, c)
	}
	return out
}

// buildInstance assembles the mip.Instance of a component with streams
// reindexed densely.
func buildInstance(req *Request, c *component) *mip.Instance {
	sIdx := map[int]int{}
	for i, s := range c.streams {
		sIdx[s] = i
	}
	in := &mip.Instance{
		NumPartitions: req.NumPartitions,
		NumGroups:     req.NumGroups,
		NumStreams:    len(c.streams),
		LatP:          req.latP(),
		LatProc:       req.LatProc,
	}
	for _, qi := range c.queries {
		q := req.Queries[qi]
		cl := mip.Class{Label: q.ID, Weight: q.Weight}
		for _, inp := range q.Inputs {
			cl.Streams = append(cl.Streams, mip.ClassStream{
				Stream: sIdx[inp.Stream],
				Card:   append([]float64(nil), inp.Card...),
				SW:     append([]float64(nil), inp.SW...),
			})
		}
		in.Classes = append(in.Classes, cl)
	}
	return in
}
