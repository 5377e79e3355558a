package optimizer

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saspar/internal/keyspace"
	"saspar/internal/mip"
	"saspar/internal/parallel"
)

// solveStats accumulates MIP invocation accounting across a cascade:
// how many solves ran, how many branch-and-bound nodes they explored,
// and the worst relative bound gap any of them finished with. The
// cascade helpers all write into one instance per component, so the
// stats survive the heuristic detours that produce the final plan.
type solveStats struct {
	solves int
	nodes  int64
	gap    float64
}

// solve counts one MIP solve, runs it at the relative gap under the
// round's time budget and node cap, and records its nodes and bound
// gap. It returns nil when the solve fails.
func (st *solveStats) solve(in *mip.Instance, o mip.Options, gap float64, opt Options) *mip.Result {
	st.solves++
	o.RelGap, o.TimeBudget, o.MaxNodes = gap, opt.Timeout, opt.MaxNodes
	res, err := mip.Solve(in, o)
	if err != nil {
		return nil
	}
	st.nodes += res.Nodes
	if g := res.Gap(); g > st.gap {
		st.gap = g
	}
	return res
}

// add folds one cascade step's stats into the component's.
func (st *solveStats) add(o solveStats) {
	st.solves += o.solves
	st.nodes += o.nodes
	if o.gap > st.gap {
		st.gap = o.gap
	}
}

// componentResult is the outcome for one stream component.
type componentResult struct {
	comp       *component
	assign     [][]int // per component query, per ORIGINAL group → partition
	objective  float64
	stats      solveStats
	heuristics []string
	exact      bool
	via        string // cascade step that produced the accepted plan
}

// solveComponent runs Algorithm 1 on one component.
//
// A MIP invocation "succeeds" when it proves optimality or reaches the
// requested gap; a Budget exit (time or node limit) is the paper's "no
// feasible solution found" and advances the cascade. Whatever happens,
// the best incumbent seen — scored by the exact objective on the
// original, unreduced instance — is returned, so the optimizer always
// produces a usable plan (the CPLEX "best result up to that point").
func solveComponent(req *Request, c *component, opt Options) *componentResult {
	// Above the size threshold the streaming greedy tier replaces the
	// whole cascade, including the descent polish: its trials are priced
	// incrementally, but each still folds the terms of the groups after
	// the moved one and each group's hoist folds every other group, so a
	// pass is quadratic in groups and would dwarf the solve.
	if opt.greedyStandalone(req) {
		return greedyComponent(req, c, opt)
	}
	orig := buildInstance(req, c)
	anchorOpts := buildAnchor(req, c, opt)
	// Below the standalone threshold the streaming greedy plan still
	// earns its keep twice: as a candidate plan in its own right, and
	// as B&B's initial incumbent so pruning starts from a tight upper
	// bound. MIPOnly stays a pure single solve, the Fig. 8a "MIP"
	// series.
	var seed [][]int
	if !opt.MIPOnly {
		seed = greedyAssign(orig, anchorOpts)
	}
	return solveComponentInner(req, c, opt, orig, anchorOpts, seed)
}

// buildAnchor maps the request-level anchor onto a component's classes.
func buildAnchor(req *Request, c *component, opt Options) mip.Options {
	var prefer [][]int
	var moveCost []float64
	if opt.Anchor != nil {
		prefer = make([][]int, len(c.queries))
		for i, qi := range c.queries {
			a := opt.Anchor[qi]
			if a == nil || a.NumGroups() != req.NumGroups {
				prefer = nil
				break
			}
			row := make([]int, req.NumGroups)
			for g := 0; g < req.NumGroups; g++ {
				row[g] = int(a.Partition(keyspace.GroupID(g)))
			}
			prefer[i] = row
		}
		if prefer != nil && opt.MoveCost != nil {
			moveCost = make([]float64, len(c.queries))
			for i, qi := range c.queries {
				moveCost[i] = opt.MoveCost[qi]
			}
		}
	}
	return mip.Options{Prefer: prefer, MoveCost: moveCost}
}

// solveComponentInner runs the B&B cascade from the anchor and the
// greedy seed (nil for none), then polishes its plan.
func solveComponentInner(req *Request, c *component, opt Options, orig *mip.Instance, anchorOpts mip.Options, seed [][]int) *componentResult {
	cr := &componentResult{comp: c}
	prefer := anchorOpts.Prefer

	best := func(assign [][]int) {
		if assign == nil {
			return
		}
		obj := mip.Evaluate(orig, assign) + mip.MovementPenalty(orig, anchorOpts, assign)
		if cr.assign == nil || obj < cr.objective {
			cr.assign = assign
			cr.objective = obj
		}
	}
	// Staying put is always a candidate: heuristic plans must beat the
	// incumbent assignment including their movement bill. An anchor with
	// unassigned groups (NoPartition after a restricted-domain remap) is
	// not a feasible plan and must not be seeded — Evaluate would index
	// a nonexistent partition.
	if prefer != nil && anchorFeasible(prefer, orig.NumPartitions) {
		anchorRows := make([][]int, len(prefer))
		for i, row := range prefer {
			anchorRows[i] = append([]int(nil), row...)
		}
		best(anchorRows)
	}

	// The same anchorFeasible guard that protects anchor seeding applies
	// to the greedy seed — a plan outside the (possibly crash-shrunk)
	// partition domain must never seed the search.
	origOpts := anchorOpts
	if seed != nil && anchorFeasible(seed, orig.NumPartitions) {
		seedCopy := make([][]int, len(seed))
		for i, row := range seed {
			seedCopy[i] = append([]int(nil), row...)
		}
		best(seedCopy)
		origOpts.Incumbent = seed
	}

	steps, heuristics := planCascade(req, opt, orig, origOpts)
	// A node-capped solve does fixed work, so a second core finishes the
	// same list sooner. A time-budgeted solve does whatever work fits its
	// window: a second one would only take a core from the serve loop's
	// tick workers, so that cascade runs one solve at a time.
	width := 1
	if opt.Timeout == 0 && len(steps) > 1 {
		width += parallel.AcquireTokens(1)
	}
	cr.heuristics = heuristics
	runSteps(steps, width, func(s *step) bool {
		cr.stats.add(s.stats)
		best(s.expand())
		if !s.ok {
			return false
		}
		cr.via = s.via
		cr.exact = s.exact
		cr.heuristics = heuristics[:s.heur]
		return true
	})
	// The polish runs on this goroutine alone: the spare token goes back
	// first.
	parallel.ReleaseTokens(width - 1)

	// Final polish: coordinated group-level moves (all classes of a
	// group together), which per-class search misses under anchoring.
	if cr.assign != nil && !opt.MIPOnly {
		budget := opt.Timeout / 4
		if assign, obj := coordinatedDescent(orig, anchorOpts, cr.assign, budget); obj < cr.objective {
			cr.assign = assign
			cr.objective = obj
		}
	}
	return cr
}

// step is one entry of the planned cascade: one MIP solve, or one
// heuristic detour that solves several models. The plan fixes what it
// solves and what a success there means; running it fills in the rest.
type step struct {
	solve    func(st *solveStats) ([][]int, bool)
	groupMap []int  // original group → group of the model the step solves
	via      string // cascade step credited when this solve succeeds
	heur     int    // length of the heuristics list once the step is applied
	exact    bool   // a success here leaves the component exact

	assign [][]int // plan over the solved model's groups
	ok     bool    // proved optimal or reached its gap
	stats  solveStats
	done   chan struct{}
}

func (s *step) run() {
	s.assign, s.ok = s.solve(&s.stats)
	close(s.done)
}

func (s *step) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// expand maps the step's plan back onto the original key groups.
func (s *step) expand() [][]int {
	if s.assign == nil {
		return nil
	}
	out := make([][]int, len(s.assign))
	for ci, row := range s.assign {
		full := make([]int, len(s.groupMap))
		for g, rg := range s.groupMap {
			full[g] = row[rg]
		}
		out[ci] = full
	}
	return out
}

// planCascade walks Algorithm 1's iterations without solving anything
// and lists the solves they run, in order, with the full heuristics
// list. Which models the cascade solves never depends on what an
// earlier solve returned — only where the cascade stops does — so the
// list can run ahead of the consumer that decides where to stop.
//
// An iteration that merged key groups solved the merged model at the
// widened gap, and the next iteration opens on that same model at that
// same gap (as does an iteration whose gap stayed put and merged
// nothing): such a repeat is not planned, its result is already known
// to have failed.
func planCascade(req *Request, opt Options, orig *mip.Instance, origOpts mip.Options) ([]*step, []string) {
	var steps []*step
	var heuristics []string
	groupMap := identityMap(req.NumGroups) // original group → current reduced group
	add := func(solve func(*solveStats) ([][]int, bool), via string) {
		steps = append(steps, &step{
			solve: solve, groupMap: groupMap, via: via,
			heur: len(heuristics), exact: len(steps) == 0,
			done: make(chan struct{}),
		})
	}
	// solveAt is the body of one MIP solve; it remembers the last model
	// and gap it was asked for, to spot a repeat.
	var lastIn *mip.Instance
	var lastGap float64
	solveAt := func(in *mip.Instance, gap float64) func(*solveStats) ([][]int, bool) {
		lastIn, lastGap = in, gap
		var o mip.Options
		if in == orig {
			o = origOpts
		}
		return func(st *solveStats) ([][]int, bool) {
			res := st.solve(in, o, gap, opt)
			if res == nil {
				return nil, false
			}
			return res.Assign, res.Status != mip.Budget
		}
	}

	if opt.MIPOnly {
		add(solveAt(orig, 0), "")
		return steps, nil
	}

	gap := optGap
	cur := orig
	lastReduction := HeurOptGap // credit for full-model successes
	detour := func(h string, solve func(*mip.Instance, float64, Options, *solveStats) ([][]int, bool)) {
		in, g := cur, gap
		heuristics = append(heuristics, h)
		add(func(st *solveStats) ([][]int, bool) { return solve(in, g, opt, st) }, h)
	}
	for iter := 0; iter < iterMax; iter++ {
		// Heuristics 2+3: gap tolerance and time budget on the full model.
		heuristics = append(heuristics, HeurOptGap, HeurTimeout)
		if cur != lastIn || gap != lastGap {
			// A success on a reduced model owes its feasibility to the
			// reduction, not to the gap alone.
			add(solveAt(cur, gap), lastReduction)
		}
		// Widen the acceptable gap, but boundedly: past ~25% the
		// "solution" would be worse than not optimizing at all, so the
		// cascade moves to structural reductions instead.
		gap = min(2*gap, 0.25)

		// Heuristic 4: merge key groups down to the partition count.
		if cur.NumGroups > req.NumPartitions {
			target := cur.NumGroups / 2
			if target < req.NumPartitions {
				target = req.NumPartitions
			}
			cur, groupMap = mergeGroups(cur, groupMap, target)
			lastReduction = HeurMergeKeys
			heuristics = append(heuristics, HeurMergeKeys)
			add(solveAt(cur, gap), HeurMergeKeys)
		}

		// Heuristic 7: merge partitions (two-phase logical partitions).
		if cur.NumPartitions > numNodes {
			detour(HeurMergePar, mergePartitionsSolve)
		}

		// Heuristic 5: tree optimization for many queries.
		if len(cur.Classes) > treeThreshold {
			detour(HeurTreeOpt, treeSolve)
		}

		// Heuristic 6: hybrid execution — shared within similarity
		// groups, non-shared between them.
		if len(cur.Classes) > hybridThreshold {
			detour(HeurHybridExec, hybridSolve)
		}
	}
	return steps, heuristics
}

// runSteps runs the planned steps on width goroutines — the caller and
// width-1 helpers, all claiming steps in plan order — and hands each
// finished step to consume in plan order until consume returns true.
// Helpers stop claiming once the consumer stops, and runSteps returns
// only after every step it started has finished, so a step run past
// the stopping point costs at most its own solve and is never counted.
// At width 1 the caller runs the steps one by one as it consumes them.
func runSteps(steps []*step, width int, consume func(*step) bool) {
	var next atomic.Int64
	var stop atomic.Bool
	claim := func() *step {
		if stop.Load() {
			return nil
		}
		k := int(next.Add(1)) - 1
		if k >= len(steps) {
			return nil
		}
		return steps[k]
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := claim(); s != nil; s = claim() {
				s.run()
			}
		}()
	}
	for _, s := range steps {
		// While the next step to consume runs elsewhere, help with the
		// steps after it.
		for !s.finished() {
			if c := claim(); c != nil {
				c.run()
			} else {
				<-s.done
			}
		}
		if consume(s) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// coordinatedDescent hill-climbs group-level moves: for every key
// group (heaviest first), it tries re-assigning the group for ALL
// classes together to each partition and keeps the best improvement,
// repeating until a pass yields nothing or the time budget expires.
//
// This is the move shape of the paper's Fig. 3 ("g2 and g6 are updated
// by the optimizer" — for every query at once). Per-class solvers miss
// it when classes share aligned traffic: moving one class's group
// alone breaks alignment and looks unprofitable, while moving the
// group for everyone at once pays.
//
// Trials are priced by a descentScorer, which returns the bits of
// mip.Evaluate + mip.MovementPenalty on the trial assignment without
// rescoring the whole instance.
func coordinatedDescent(in *mip.Instance, anchorOpts mip.Options, assign [][]int, budget time.Duration) ([][]int, float64) {
	cur := make([][]int, len(assign))
	for i := range assign {
		cur[i] = append([]int(nil), assign[i]...)
	}
	best := mip.Evaluate(in, cur) + mip.MovementPenalty(in, anchorOpts, cur)

	// Heaviest groups first.
	weight := make([]float64, in.NumGroups)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			for g, card := range cs.Card {
				weight[g] += card
			}
		}
	}
	order := make([]int, in.NumGroups)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })

	// budget <= 0 means no wall-clock deadline (deterministic mode):
	// the pass cap alone bounds the descent.
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	sc := newDescentScorer(in, anchorOpts, cur)
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, g := range order {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return cur, best
			}
			sc.hoist(g)
			bestP, bestObj := -1, best
			for p := 0; p < in.NumPartitions; p++ {
				if obj := sc.trial(p); obj < bestObj {
					bestObj, bestP = obj, p
				}
			}
			if bestP >= 0 {
				sc.move(bestP)
				best = bestObj
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, best
}

// anchorFeasible reports whether every anchor row places every group on
// a real partition of the instance.
func anchorFeasible(prefer [][]int, numPartitions int) bool {
	for _, row := range prefer {
		for _, p := range row {
			if p < 0 || p >= numPartitions {
				return false
			}
		}
	}
	return true
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// mergeGroups folds the instance's key groups down to target groups,
// composing the original→reduced mapping. Cardinalities add; SW merges
// cardinality-weighted (the paper's "merges statistics of both key
// groups").
func mergeGroups(in *mip.Instance, prev []int, target int) (*mip.Instance, []int) {
	if target >= in.NumGroups {
		return in, prev
	}
	// Contiguous fold: reduced group = g * target / numGroups.
	fold := make([]int, in.NumGroups)
	for g := 0; g < in.NumGroups; g++ {
		fold[g] = g * target / in.NumGroups
	}
	out := &mip.Instance{
		NumPartitions: in.NumPartitions,
		NumGroups:     target,
		NumStreams:    in.NumStreams,
		LatP:          in.LatP,
		LatProc:       in.LatProc,
	}
	for _, c := range in.Classes {
		nc := mip.Class{Label: c.Label, Weight: c.Weight}
		for _, cs := range c.Streams {
			card := make([]float64, target)
			sw := make([]float64, target)
			for g := 0; g < in.NumGroups; g++ {
				card[fold[g]] += cs.Card[g]
				sw[fold[g]] += cs.Card[g] * cs.SW[g]
			}
			for g := range sw {
				if card[g] > 0 {
					sw[g] /= card[g]
				}
			}
			nc.Streams = append(nc.Streams, mip.ClassStream{Stream: cs.Stream, Card: card, SW: sw})
		}
		out.Classes = append(out.Classes, nc)
	}
	next := make([]int, len(prev))
	for og, rg := range prev {
		next[og] = fold[rg]
	}
	return out, next
}

// mergePartitionsSolve implements heuristic 7: physical partitions are
// paired into logical partitions, the reduced model is solved, and a
// second phase re-solves each logical partition internally over its
// member partitions.
func mergePartitionsSolve(in *mip.Instance, gap float64, opt Options, st *solveStats) ([][]int, bool) {
	P := in.NumPartitions
	LP := max((P+1)/2, numNodes)
	if LP >= P {
		return nil, false
	}
	members := make([][]int, LP)
	for p := 0; p < P; p++ {
		l := p * LP / P
		members[l] = append(members[l], p)
	}
	// Phase 1: logical model.
	ph1 := &mip.Instance{
		NumPartitions: LP,
		NumGroups:     in.NumGroups,
		NumStreams:    in.NumStreams,
		LatProc:       in.LatProc,
		Classes:       in.Classes,
		LatP:          make([]float64, LP),
	}
	for l, ms := range members {
		for _, p := range ms {
			ph1.LatP[l] += in.LatP[p]
		}
		ph1.LatP[l] /= float64(len(ms))
	}
	res1 := st.solve(ph1, mip.Options{}, gap, opt)
	if res1 == nil {
		return nil, false
	}
	ok := res1.Status != mip.Budget

	// Phase 2: within each logical partition, distribute its groups
	// over the member partitions.
	final := make([][]int, len(in.Classes))
	for ci := range final {
		final[ci] = make([]int, in.NumGroups)
	}
	for l, ms := range members {
		if len(ms) == 1 {
			for ci := range in.Classes {
				for g := 0; g < in.NumGroups; g++ {
					if res1.Assign[ci][g] == l {
						final[ci][g] = ms[0]
					}
				}
			}
			continue
		}
		// Collect the groups any class routed to this logical partition.
		groupSet := map[int]bool{}
		for ci := range in.Classes {
			for g := 0; g < in.NumGroups; g++ {
				if res1.Assign[ci][g] == l {
					groupSet[g] = true
				}
			}
		}
		if len(groupSet) == 0 {
			continue
		}
		groups := make([]int, 0, len(groupSet))
		for g := range groupSet {
			groups = append(groups, g)
		}
		sort.Ints(groups)
		sub := &mip.Instance{
			NumPartitions: len(ms),
			NumGroups:     len(groups),
			NumStreams:    in.NumStreams,
			LatProc:       in.LatProc,
			LatP:          make([]float64, len(ms)),
		}
		for i, p := range ms {
			sub.LatP[i] = in.LatP[p]
		}
		for _, c := range in.Classes {
			nc := mip.Class{Label: c.Label, Weight: c.Weight}
			for _, cs := range c.Streams {
				card := make([]float64, len(groups))
				sw := make([]float64, len(groups))
				for i, g := range groups {
					card[i] = cs.Card[g]
					sw[i] = cs.SW[g]
				}
				nc.Streams = append(nc.Streams, mip.ClassStream{Stream: cs.Stream, Card: card, SW: sw})
			}
			sub.Classes = append(sub.Classes, nc)
		}
		res2 := st.solve(sub, mip.Options{}, gap, opt)
		if res2 == nil {
			return nil, false
		}
		ok = ok && res2.Status != mip.Budget
		for ci := range in.Classes {
			for i, g := range groups {
				if res1.Assign[ci][g] == l {
					final[ci][g] = ms[res2.Assign[ci][i]]
				}
			}
		}
	}
	return final, ok
}

// treeSolve implements heuristic 5: classes are paired, each pair's
// statistics merged as if it were a single query, recursively until the
// class count fits the threshold, then solved once. Every constituent
// of a merged class inherits its assignment.
func treeSolve(in *mip.Instance, gap float64, opt Options, st *solveStats) ([][]int, bool) {
	// membership[i] = original class indexes of merged class i.
	membership := make([][]int, len(in.Classes))
	for i := range membership {
		membership[i] = []int{i}
	}
	classes := append([]mip.Class(nil), in.Classes...)

	for len(classes) > treeThreshold {
		// Pair adjacent classes after sorting by total cardinality, so
		// similar-volume queries merge (the paper pairs Q1,Q2 / Q3,Q4).
		order := make([]int, len(classes))
		for i := range order {
			order[i] = i
		}
		tot := func(c *mip.Class) float64 {
			var s float64
			for _, cs := range c.Streams {
				for _, x := range cs.Card {
					s += x
				}
			}
			return s
		}
		sort.SliceStable(order, func(a, b int) bool { return tot(&classes[order[a]]) > tot(&classes[order[b]]) })

		var merged []mip.Class
		var mergedMembers [][]int
		for i := 0; i < len(order); i += 2 {
			if i+1 == len(order) {
				merged = append(merged, classes[order[i]])
				mergedMembers = append(mergedMembers, membership[order[i]])
				continue
			}
			a, b := classes[order[i]], classes[order[i+1]]
			merged = append(merged, mergeClassPair(a, b))
			mergedMembers = append(mergedMembers, append(append([]int(nil), membership[order[i]]...), membership[order[i+1]]...))
		}
		classes = merged
		membership = mergedMembers
	}

	reduced := &mip.Instance{
		NumPartitions: in.NumPartitions,
		NumGroups:     in.NumGroups,
		NumStreams:    in.NumStreams,
		LatP:          in.LatP,
		LatProc:       in.LatProc,
		Classes:       classes,
	}
	res := st.solve(reduced, mip.Options{}, gap, opt)
	if res == nil {
		return nil, false
	}
	final := make([][]int, len(in.Classes))
	for mi, members := range membership {
		for _, ci := range members {
			final[ci] = append([]int(nil), res.Assign[mi]...)
		}
	}
	return final, res.Status != mip.Budget
}

// mergeClassPair treats two partitioning strategies as one query: the
// pair will be co-assigned, so shared traffic is the max of the two and
// post-partition weight adds.
func mergeClassPair(a, b mip.Class) mip.Class {
	out := mip.Class{Label: a.Label + "+" + b.Label, Weight: a.Weight + b.Weight}
	byStream := map[int]*mip.ClassStream{}
	add := func(c mip.Class) {
		for _, cs := range c.Streams {
			dst := byStream[cs.Stream]
			if dst == nil {
				dst = &mip.ClassStream{
					Stream: cs.Stream,
					Card:   make([]float64, len(cs.Card)),
					SW:     make([]float64, len(cs.SW)),
				}
				byStream[cs.Stream] = dst
			}
			for g := range cs.Card {
				// Shared view: volume is the max, sharing coefficient a
				// cardinality-weighted mean.
				tot := dst.Card[g] + cs.Card[g]
				if tot > 0 {
					dst.SW[g] = (dst.SW[g]*dst.Card[g] + cs.SW[g]*cs.Card[g]) / tot
				}
				if cs.Card[g] > dst.Card[g] {
					dst.Card[g] = cs.Card[g]
				}
			}
		}
	}
	add(a)
	add(b)
	streams := make([]int, 0, len(byStream))
	for s := range byStream {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	for _, s := range streams {
		out.Streams = append(out.Streams, *byStream[s])
	}
	return out
}

// hybridSolve implements heuristic 6: classes are clustered by volume
// similarity into groups solved independently — shared execution inside
// a group, non-shared across groups.
func hybridSolve(in *mip.Instance, gap float64, opt Options, st *solveStats) ([][]int, bool) {
	order := make([]int, len(in.Classes))
	for i := range order {
		order[i] = i
	}
	tot := func(ci int) float64 {
		var s float64
		for _, cs := range in.Classes[ci].Streams {
			for _, x := range cs.Card {
				s += x
			}
		}
		return s
	}
	sort.SliceStable(order, func(a, b int) bool { return tot(order[a]) > tot(order[b]) })

	final := make([][]int, len(in.Classes))
	allOK := true
	for lo := 0; lo < len(order); lo += treeThreshold {
		hi := min(lo+treeThreshold, len(order))
		sub := &mip.Instance{
			NumPartitions: in.NumPartitions,
			NumGroups:     in.NumGroups,
			NumStreams:    in.NumStreams,
			LatP:          in.LatP,
			LatProc:       in.LatProc,
		}
		for _, ci := range order[lo:hi] {
			sub.Classes = append(sub.Classes, in.Classes[ci])
		}
		res := st.solve(sub, mip.Options{}, gap, opt)
		if res == nil {
			return nil, false
		}
		allOK = allOK && res.Status != mip.Budget
		for i, ci := range order[lo:hi] {
			final[ci] = append([]int(nil), res.Assign[i]...)
		}
	}
	return final, allOK
}
