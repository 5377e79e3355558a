package mip

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// This file keeps a reference branch-and-bound kernel: the search Solve
// runs, written without the per-solve decision table. Every node
// computes its products from the Instance itself and keeps its loads in
// nested rows. FuzzSolveMatchesReference holds Solve to it bit for bit,
// so the table cannot change a float the search sees.

// refSolve runs the reference kernel on an instance Solve has already
// validated.
func refSolve(in *Instance, opt Options) *Result {
	return newRefSolver(in, opt).run()
}

// FuzzSolveMatchesReference holds Solve to the reference kernel bit for
// bit: the same status, assignment, objective, bound and node count.
// shape packs classes (1–16), groups (1–32), partitions (1–8) and
// streams (1–3) into its four bytes; flags select an anchor, a movement
// bill, an in-domain or out-of-domain incumbent, a relative gap, and
// an uncapped search on instances small enough to exhaust; otherwise
// the node cap is 1 + capNodes. A class may read one stream twice, so
// the order stream updates are undone in is exercised. CI runs a short
// -fuzztime smoke (scripts/ci.sh).
func FuzzSolveMatchesReference(f *testing.F) {
	shape := func(classes, groups, parts, streams int) uint32 {
		return uint32(classes-1) | uint32(groups-1)<<8 | uint32(parts-1)<<16 | uint32(streams-1)<<24
	}
	f.Add(int64(1), shape(14, 32, 8, 3), uint8(anchored|moveCost), uint16(49999))
	f.Add(int64(2), shape(1, 32, 8, 1), uint8(anchored|moveCost), uint16(49999))
	f.Add(int64(3), shape(3, 6, 3, 2), uint8(0), uint16(4000))
	f.Add(int64(4), shape(2, 4, 3, 1), uint8(uncapped), uint16(0))
	f.Add(int64(5), shape(3, 2, 4, 2), uint8(anchored|moveCost|uncapped), uint16(0))
	f.Add(int64(6), shape(4, 16, 8, 2), uint8(anchored|moveCost), uint16(3000))
	f.Add(int64(7), shape(4, 16, 8, 2), uint8(incumbent|relGap), uint16(5000))
	f.Add(int64(4), shape(3, 6, 3, 1), uint8(incumbent), uint16(6000))
	f.Add(int64(8), shape(4, 16, 8, 2), uint8(anchored|staleIncumbent|relGap), uint16(5000))
	f.Add(int64(17), shape(6, 12, 5, 1), uint8(anchored|relGap), uint16(7000))
	f.Add(int64(10), shape(8, 8, 2, 3), uint8(moveCost|incumbent), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, shape uint32, flags uint8, capNodes uint16) {
		in, opt := refCase(seed, shape, flags, capNodes)
		got, err := Solve(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := refSolve(in, opt)
		if got.Status != want.Status || got.Nodes != want.Nodes {
			t.Fatalf("status %v after %d nodes; reference %v after %d", got.Status, got.Nodes, want.Status, want.Nodes)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
			t.Fatalf("objective %v bound %v; reference %v, %v", got.Objective, got.Bound, want.Objective, want.Bound)
		}
		if !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Fatalf("assign %v; reference %v", got.Assign, want.Assign)
		}
	})
}

// Flags of FuzzSolveMatchesReference's cases.
const (
	anchored = 1 << iota
	moveCost
	incumbent
	staleIncumbent
	relGap
	uncapped
)

// refCase builds one FuzzSolveMatchesReference case from its inputs.
func refCase(seed int64, shape uint32, flags uint8, capNodes uint16) (*Instance, Options) {
	rng := rand.New(rand.NewSource(seed))
	nc := 1 + int(shape&0xff)%16
	ng := 1 + int(shape>>8&0xff)%32
	np := 1 + int(shape>>16&0xff)%8
	ns := 1 + int(shape>>24)%3
	in := &Instance{
		NumPartitions: np, NumGroups: ng, NumStreams: ns,
		LatP: make([]float64, np), LatProc: []float64{0.01, 0.5, 2 * rng.Float64()}[rng.Intn(3)],
	}
	for p := range in.LatP {
		in.LatP[p] = []float64{0.2, 1, 2 * rng.Float64()}[rng.Intn(3)]
	}
	for c := 0; c < nc; c++ {
		cl := Class{Weight: float64(1 + rng.Intn(3))}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			cs := ClassStream{Stream: rng.Intn(ns), Card: make([]float64, ng), SW: make([]float64, ng)}
			for g := 0; g < ng; g++ {
				if rng.Intn(10) > 0 {
					cs.Card[g] = float64(rng.Intn(100))
				}
				cs.SW[g] = []float64{0, 1, rng.Float64()}[rng.Intn(3)]
			}
			cl.Streams = append(cl.Streams, cs)
		}
		in.Classes = append(in.Classes, cl)
	}
	table := func(pick func() int) [][]int {
		t := make([][]int, nc)
		for c := range t {
			t[c] = make([]int, ng)
			for g := range t[c] {
				t[c][g] = pick()
			}
		}
		return t
	}
	var opt Options
	if flags&anchored != 0 {
		// Mostly in domain, sometimes unset or past the last partition.
		opt.Prefer = table(func() int { return rng.Intn(np+2) - 1 })
	}
	if flags&moveCost != 0 {
		opt.MoveCost = make([]float64, nc)
		for c := range opt.MoveCost {
			opt.MoveCost[c] = 0.1 * rng.Float64()
		}
	}
	if flags&(incumbent|staleIncumbent) != 0 {
		opt.Incumbent = table(func() int { return rng.Intn(np) })
		if flags&staleIncumbent != 0 {
			opt.Incumbent[rng.Intn(nc)][rng.Intn(ng)] = np
		}
	}
	if flags&relGap != 0 {
		opt.RelGap = 0.6 * rng.Float64()
	}
	opt.MaxNodes = 1 + int64(capNodes)
	if flags&uncapped != 0 && nc*ng <= 8 && np <= 4 {
		opt.MaxNodes = 0
	}
	return in, opt
}

// refSolver holds the branch-and-bound working state. Decisions are
// ordered group-major (all classes of group 0, then group 1, ...), so
// the max-sharing term of a group is finalized before the next group
// starts, allowing exact incremental cost accounting.
type refSolver struct {
	in  *Instance
	opt Options

	minLat  float64
	meanLat float64

	// Per (class) flattened stream stats for the hot loop.
	classStreams [][]ClassStream

	// groupOrder sorts groups by descending total cardinality so heavy,
	// high-impact decisions are taken near the root of the tree.
	groupOrder []int

	// suffixTrafficLB[gi] is an admissible lower bound on the traffic
	// cost of groups groupOrder[gi:].
	suffixTrafficLB []float64
	// remainderLB[gi·C+ci] bounds the traffic of every decision from
	// (group groupOrder[gi], class ci) on, for C classes: the undecided
	// classes of that group pay at least their unshareable part at the
	// cheapest latency, later groups the suffix bound. The search reads
	// it at every node; it depends only on the decision.
	remainderLB []float64
	// totalCards[s]: total weighted cards of stream s; total/P bounds
	// the final makespan from below.
	totalCards []float64

	// Search state.
	assign    [][]int     // current partial assignment
	load      [][]float64 // per stream, per partition
	maxLoad   []float64   // per stream running max
	shMax     []float64   // current group: per (stream, partition)
	unshAcc   []float64   // current group: per (stream, partition)
	trafficSo float64     // finalized + current-group partial traffic cost

	best       float64
	bestAssign [][]int
	bound      float64 // best proven global lower bound (root)

	// cands holds the candidate partitions of every search depth, one
	// NumPartitions-wide stripe per (group, class) decision: a frame's
	// candidates must outlive its recursive calls, and a stripe per depth
	// gives each frame its own without allocating per node.
	cands []refCand

	nodes    int64
	deadline time.Time
	timedOut bool
}

// refCand is one candidate partition of a decision: its marginal traffic
// cost and the ordering key (traffic plus marginal makespan, with the
// anchored partition nudged ahead of near-ties).
type refCand struct {
	p     int
	delta float64
	key   float64
}

func newRefSolver(in *Instance, opt Options) *refSolver {
	s := &refSolver{in: in, opt: opt}
	s.minLat = math.Inf(1)
	for _, l := range in.LatP {
		if l < s.minLat {
			s.minLat = l
		}
	}
	s.meanLat = meanOf(in.LatP)
	s.classStreams = make([][]ClassStream, len(in.Classes))
	for ci := range in.Classes {
		s.classStreams[ci] = in.Classes[ci].Streams
	}

	// Group ordering: heavy groups first.
	tot := make([]float64, in.NumGroups)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			for g, card := range cs.Card {
				tot[g] += card
			}
		}
	}
	s.groupOrder = make([]int, in.NumGroups)
	for i := range s.groupOrder {
		s.groupOrder[i] = i
	}
	sort.SliceStable(s.groupOrder, func(a, b int) bool { return tot[s.groupOrder[a]] > tot[s.groupOrder[b]] })

	// Suffix traffic lower bound: for each group, every class pays its
	// unshareable part and at least the largest shareable part must be
	// paid once, all at the cheapest latency.
	perGroupLB := make([]float64, in.NumGroups)
	for g := 0; g < in.NumGroups; g++ {
		for st := 0; st < in.NumStreams; st++ {
			var unsh, shMax float64
			for _, c := range in.Classes {
				for _, cs := range c.Streams {
					if cs.Stream != st {
						continue
					}
					unsh += cs.Card[g] * (1 - cs.SW[g])
					if sh := cs.Card[g] * cs.SW[g]; sh > shMax {
						shMax = sh
					}
				}
			}
			perGroupLB[g] += (unsh + shMax) * s.minLat
		}
	}
	n := in.NumGroups
	s.suffixTrafficLB = make([]float64, n+1)
	for gi := n - 1; gi >= 0; gi-- {
		s.suffixTrafficLB[gi] = s.suffixTrafficLB[gi+1] + perGroupLB[s.groupOrder[gi]]
	}
	nc := len(in.Classes)
	s.remainderLB = make([]float64, n*nc+1)
	for d := range s.remainderLB {
		gi, ci := d/nc, d%nc
		var lb float64
		if ci != 0 {
			// Summed forward from ci, term by term: a suffix recurrence
			// would reorder the additions and move node counts.
			g := s.groupOrder[gi]
			for c := ci; c < nc; c++ {
				for _, cs := range in.Classes[c].Streams {
					lb += cs.Card[g] * (1 - cs.SW[g]) * s.minLat
				}
			}
			lb += s.suffixTrafficLB[gi+1]
		} else {
			lb += s.suffixTrafficLB[gi]
		}
		s.remainderLB[d] = lb
	}
	s.totalCards = make([]float64, in.NumStreams)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			for g := 0; g < in.NumGroups; g++ {
				s.totalCards[cs.Stream] += c.Weight * cs.Card[g]
			}
		}
	}

	s.assign = make([][]int, len(in.Classes))
	s.bestAssign = make([][]int, len(in.Classes))
	for ci := range s.assign {
		s.assign[ci] = make([]int, in.NumGroups)
		s.bestAssign[ci] = make([]int, in.NumGroups)
		for g := range s.assign[ci] {
			s.assign[ci][g] = -1
		}
	}
	s.load = make([][]float64, in.NumStreams)
	for st := range s.load {
		s.load[st] = make([]float64, in.NumPartitions)
	}
	s.maxLoad = make([]float64, in.NumStreams)
	s.shMax = make([]float64, in.NumStreams*in.NumPartitions)
	s.unshAcc = make([]float64, in.NumStreams*in.NumPartitions)
	return s
}

func (s *refSolver) run() *Result {
	start := time.Now()
	if s.opt.TimeBudget > 0 {
		s.deadline = start.Add(s.opt.TimeBudget)
	}

	// Greedy incumbent so a budget exit always has a feasible answer.
	// Movement penalties are part of the refSolver's objective whenever an
	// anchor is set, uniformly for every candidate solution.
	greedy := s.greedy()
	s.best = Evaluate(s.in, greedy) + MovementPenalty(s.in, s.opt, greedy)
	for ci := range greedy {
		copy(s.bestAssign[ci], greedy[ci])
	}
	// The anchor itself is always a feasible candidate: an anchored
	// solve can never return a plan scoring worse than staying put.
	if a := s.anchorAssign(); a != nil {
		if obj := Evaluate(s.in, a); obj < s.best {
			s.best = obj
			for ci := range a {
				copy(s.bestAssign[ci], a[ci])
			}
		}
	}
	// A caller-provided incumbent (greedy-tier seed) tightens the bound
	// further — but only when it is feasible in this instance's domain.
	if inc := s.feasibleIncumbent(); inc != nil {
		if obj := Evaluate(s.in, inc) + MovementPenalty(s.in, s.opt, inc); obj < s.best {
			s.best = obj
			for ci := range inc {
				copy(s.bestAssign[ci], inc[ci])
			}
		}
	}
	s.bound = s.suffixTrafficLB[0] // root lower bound (traffic only)

	if !s.gapReached() {
		s.cands = make([]refCand, s.in.NumGroups*len(s.in.Classes)*s.in.NumPartitions)
		s.dfs(0, 0)
	}

	res := &Result{
		Assign:    s.bestAssign,
		Objective: s.best,
		Nodes:     s.nodes,
		Elapsed:   time.Since(start),
	}
	switch {
	case s.timedOut:
		res.Status = Budget
		res.Bound = s.bound
	case s.gapReached():
		res.Status = GapReached
		res.Bound = s.bound
	default:
		// Search exhausted: the incumbent is optimal and the bound tight.
		res.Status = Optimal
		res.Bound = s.best
	}
	return res
}

func (s *refSolver) gapReached() bool {
	if s.best <= s.bound {
		return true
	}
	if s.opt.RelGap > 0 && (s.best-s.bound)/s.best <= s.opt.RelGap {
		return true
	}
	return false
}

func (s *refSolver) budgetExpired() bool {
	if s.timedOut {
		return true
	}
	if s.opt.MaxNodes > 0 && s.nodes > s.opt.MaxNodes {
		s.timedOut = true
		return true
	}
	if !s.deadline.IsZero() && s.nodes%1024 == 0 && time.Now().After(s.deadline) {
		s.timedOut = true
		return true
	}
	return false
}

// dfs assigns decision (gi-th group in order, class ci). When ci wraps,
// the group's traffic is already folded into trafficSo.
func (s *refSolver) dfs(gi, ci int) {
	if gi == s.in.NumGroups {
		obj := s.trafficSo + s.makespanCost()
		if obj < s.best {
			s.best = obj
			for c := range s.assign {
				copy(s.bestAssign[c], s.assign[c])
			}
		}
		return
	}
	if ci == 0 {
		// Entering a new group: reset its sharing accumulators.
		for i := range s.shMax {
			s.shMax[i] = 0
			s.unshAcc[i] = 0
		}
	}
	g := s.groupOrder[gi]
	c := &s.in.Classes[ci]
	nextGi, nextCi := gi, ci+1
	if nextCi == len(s.in.Classes) {
		nextGi, nextCi = gi+1, 0
	}

	// Candidate partitions ordered by marginal traffic cost; cheapest
	// first maximizes early pruning. The anchored partition sorts ahead
	// of equal-cost alternatives (and marginally ahead of near-ties),
	// so the first — and on ties, the returned — solution stays close
	// to the incumbent assignment.
	pref := -1
	if s.opt.Prefer != nil {
		pref = s.opt.Prefer[ci][g]
	}
	moveCost := 0.0
	if pref >= 0 && s.opt.MoveCost != nil {
		for _, cs := range c.Streams {
			moveCost += s.opt.MoveCost[ci] * c.Weight * cs.Card[g]
		}
	}
	depth := gi*len(s.in.Classes) + ci
	cands := s.cands[depth*s.in.NumPartitions : depth*s.in.NumPartitions : (depth+1)*s.in.NumPartitions]
	for p := 0; p < s.in.NumPartitions; p++ {
		var d, mk float64
		for _, cs := range c.Streams {
			k := cs.Stream*s.in.NumPartitions + p
			sh := cs.Card[g] * cs.SW[g]
			if sh > s.shMax[k] {
				d += s.in.LatP[p] * (sh - s.shMax[k])
			}
			d += s.in.LatP[p] * cs.Card[g] * (1 - cs.SW[g])
			// Marginal makespan increase if this placement raises the
			// stream's max load — ordering signal only; the true
			// makespan cost is settled at the leaves.
			if nl := s.load[cs.Stream][p] + c.Weight*cs.Card[g]; nl > s.maxLoad[cs.Stream] {
				mk += (nl - s.maxLoad[cs.Stream]) * s.in.LatProc * s.meanLat
			}
		}
		if p != pref {
			d += moveCost
		}
		key := d + mk
		if p == pref {
			key *= 0.999
		}
		// Insertion sort by (key, is-anchor, partition id): a strict total
		// order, so the result is the one any comparison sort would give.
		// Partitions arrive in ascending id, which settles the last
		// tie-break: an equal earlier entry stays ahead.
		c := refCand{p: p, delta: d, key: key}
		i := len(cands)
		cands = cands[:i+1]
		for ; i > 0 && (c.key < cands[i-1].key || (c.key == cands[i-1].key && p == pref)); i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}

	for _, cd := range cands {
		s.nodes++
		if s.budgetExpired() || s.gapReached() {
			return
		}
		p := cd.p
		// Apply.
		s.assign[ci][g] = p
		s.trafficSo += cd.delta
		type undo struct {
			k     int
			shOld float64
		}
		var undos [maxClassStreams]undo
		var maxOld [maxClassStreams]float64
		nu := 0
		for _, cs := range c.Streams {
			k := cs.Stream*s.in.NumPartitions + p
			sh := cs.Card[g] * cs.SW[g]
			undos[nu] = undo{k: k, shOld: s.shMax[k]}
			maxOld[nu] = s.maxLoad[cs.Stream]
			nu++
			if sh > s.shMax[k] {
				s.shMax[k] = sh
			}
			s.unshAcc[k] += cs.Card[g] * (1 - cs.SW[g])
			s.load[cs.Stream][p] += c.Weight * cs.Card[g]
			if s.load[cs.Stream][p] > s.maxLoad[cs.Stream] {
				s.maxLoad[cs.Stream] = s.load[cs.Stream][p]
			}
		}

		// Bound: finalized traffic + optimistic remainder + makespan LB.
		lb := s.trafficSo + s.remainderLB[depth+1] + s.makespanLB()
		if lb < s.best {
			s.dfs(nextGi, nextCi)
		}

		// Revert.
		for i := nu - 1; i >= 0; i-- {
			s.shMax[undos[i].k] = undos[i].shOld
		}
		for i := len(c.Streams) - 1; i >= 0; i-- {
			cs := c.Streams[i]
			s.load[cs.Stream][p] -= c.Weight * cs.Card[g]
			s.unshAcc[cs.Stream*s.in.NumPartitions+p] -= cs.Card[g] * (1 - cs.SW[g])
			s.maxLoad[cs.Stream] = maxOld[i]
		}
		s.trafficSo -= cd.delta
		s.assign[ci][g] = -1
		if s.timedOut {
			return
		}
	}
}

// makespanLB bounds the post-partition cost: per stream, the larger of
// the current max load and the perfectly balanced total (every card is
// eventually assigned, so total/P is always a valid floor).
func (s *refSolver) makespanLB() float64 {
	var lb float64
	for st := 0; st < s.in.NumStreams; st++ {
		m := s.maxLoad[st]
		if balanced := s.totalCards[st] / float64(s.in.NumPartitions); balanced > m {
			m = balanced
		}
		lb += m * s.in.LatProc * s.meanLat
	}
	return lb
}

func (s *refSolver) makespanCost() float64 {
	var c float64
	for st := 0; st < s.in.NumStreams; st++ {
		c += s.maxLoad[st] * s.in.LatProc * s.meanLat
	}
	return c
}

// anchorAssign returns the Prefer table as a complete assignment, or
// nil when no complete anchor is set.
func (s *refSolver) anchorAssign() [][]int {
	if s.opt.Prefer == nil {
		return nil
	}
	out := make([][]int, len(s.opt.Prefer))
	for ci, row := range s.opt.Prefer {
		out[ci] = make([]int, len(row))
		for g, p := range row {
			if p < 0 || p >= s.in.NumPartitions {
				return nil
			}
			out[ci][g] = p
		}
	}
	return out
}

// feasibleIncumbent returns opt.Incumbent iff every entry lies inside
// the instance's partition domain, nil otherwise. A stale seed — say,
// one solved before a crash shrank the domain — is dropped here rather
// than anchoring the search to a plan the cluster can no longer run.
func (s *refSolver) feasibleIncumbent() [][]int {
	inc := s.opt.Incumbent
	if inc == nil {
		return nil
	}
	for _, row := range inc {
		for _, p := range row {
			if p < 0 || p >= s.in.NumPartitions {
				return nil
			}
		}
	}
	return inc
}

// greedy builds the initial incumbent: group-major, each decision takes
// the partition minimizing marginal traffic plus the true marginal
// makespan increase (how much the placement raises the stream's max
// load), plus the movement penalty when anchored.
func (s *refSolver) greedy() [][]int {
	in := s.in
	assign := make([][]int, len(in.Classes))
	for ci := range assign {
		assign[ci] = make([]int, in.NumGroups)
	}
	load := make([][]float64, in.NumStreams)
	maxLoad := make([]float64, in.NumStreams)
	for st := range load {
		load[st] = make([]float64, in.NumPartitions)
	}
	shMax := make([]float64, in.NumStreams*in.NumPartitions)
	lambda := s.in.LatProc * s.meanLat

	for gi := 0; gi < in.NumGroups; gi++ {
		g := s.groupOrder[gi]
		for i := range shMax {
			shMax[i] = 0
		}
		for ci := range in.Classes {
			c := &in.Classes[ci]
			pref := -1
			if s.opt.Prefer != nil {
				pref = s.opt.Prefer[ci][g]
			}
			moveCost := 0.0
			if pref >= 0 && s.opt.MoveCost != nil {
				for _, cs := range c.Streams {
					moveCost += s.opt.MoveCost[ci] * c.Weight * cs.Card[g]
				}
			}
			bestP, bestCost := 0, math.Inf(1)
			for p := 0; p < in.NumPartitions; p++ {
				var d float64
				for _, cs := range c.Streams {
					k := cs.Stream*in.NumPartitions + p
					sh := cs.Card[g] * cs.SW[g]
					if sh > shMax[k] {
						d += in.LatP[p] * (sh - shMax[k])
					}
					d += in.LatP[p] * cs.Card[g] * (1 - cs.SW[g])
					if nl := load[cs.Stream][p] + c.Weight*cs.Card[g]; nl > maxLoad[cs.Stream] {
						d += (nl - maxLoad[cs.Stream]) * lambda
					}
				}
				if p != pref {
					d += moveCost
				} else {
					d *= 0.999
				}
				if d < bestCost {
					bestCost, bestP = d, p
				}
			}
			assign[ci][g] = bestP
			for _, cs := range c.Streams {
				k := cs.Stream*in.NumPartitions + bestP
				if sh := cs.Card[g] * cs.SW[g]; sh > shMax[k] {
					shMax[k] = sh
				}
				load[cs.Stream][bestP] += c.Weight * cs.Card[g]
				if load[cs.Stream][bestP] > maxLoad[cs.Stream] {
					maxLoad[cs.Stream] = load[cs.Stream][bestP]
				}
			}
		}
	}
	return assign
}
