// Package mip solves the SASPAR shared-partitioning optimization
// problem of Section II of the paper: assign every (query class, key
// group) pair to a partition so that end-to-end cost — partitioning
// traffic plus post-partition makespan — is minimized.
//
// The paper formulates this as a mixed-integer program and hands it to
// IBM CPLEX. CPLEX is unavailable here, so this package provides the
// equivalent capability as a specialised exact branch-and-bound solver
// exposing the same control surface the paper's heuristics rely on:
// a relative/absolute optimality-gap tolerance, a time budget, and
// incumbent/bound tracking (Section IV, heuristics 2 and 3). Run to
// completion it is exact; its runtime grows exponentially with problem
// size, which is precisely the behaviour Fig. 8a measures.
//
// The cost model follows Eq. 4–10 with the unshareable-traffic repair
// documented in DESIGN.md:
//
//	traffic(s,g,p) = max_c{ Card·SW } + Σ_c{ Card·(1−SW) }   over classes assigned g→p
//	cost = Σ_{s,p} LatP[p]·Σ_g traffic(s,g,p)
//	     + Σ_s  max_p( Σ_{g,c} Weight·Card ) · LatProc · mean(LatP)
package mip

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// maxClassStreams bounds how many streams one class may read; binary
// joins need 2, multi-way join trees decompose before reaching the
// solver.
const maxClassStreams = 4

// Instance is one solver invocation: a set of streams that must be
// optimized together (streams coupled through binary-input operators,
// Eq. 3), the query classes over them, and the latency constants.
type Instance struct {
	NumPartitions int
	NumGroups     int
	NumStreams    int

	// Classes are the decision units: one per query (or per group of
	// identical queries). A class's key groups map to partitions
	// identically across all streams it reads (Eq. 3).
	Classes []Class

	// LatP is the per-partition latency coefficient (Table I): LatNet
	// blended with LatMem by the co-location fraction of partition p.
	LatP []float64
	// LatProc is the post-partitioning processing latency constant.
	LatProc float64
}

// Class is one query class: its per-stream, per-group statistics and
// the number of identical queries it represents.
type Class struct {
	Label   string
	Weight  float64 // identical-query multiplicity (>= 1)
	Streams []ClassStream
}

// ClassStream is one stream read by a class.
type ClassStream struct {
	Stream int       // < Instance.NumStreams
	Card   []float64 // per key group: cardinality within the stat window
	SW     []float64 // per key group: sharing coefficient in [0,1]
}

// Validate checks structural consistency.
func (in *Instance) Validate() error {
	if in.NumPartitions <= 0 || in.NumGroups <= 0 || in.NumStreams <= 0 {
		return fmt.Errorf("mip: non-positive dimensions %d/%d/%d", in.NumPartitions, in.NumGroups, in.NumStreams)
	}
	if len(in.LatP) != in.NumPartitions {
		return fmt.Errorf("mip: LatP has %d entries, want %d", len(in.LatP), in.NumPartitions)
	}
	if len(in.Classes) == 0 {
		return fmt.Errorf("mip: no classes")
	}
	for ci, c := range in.Classes {
		if c.Weight < 1 {
			return fmt.Errorf("mip: class %d weight %v < 1", ci, c.Weight)
		}
		if len(c.Streams) == 0 {
			return fmt.Errorf("mip: class %d reads no streams", ci)
		}
		if len(c.Streams) > maxClassStreams {
			return fmt.Errorf("mip: class %d reads %d streams, max %d", ci, len(c.Streams), maxClassStreams)
		}
		for _, cs := range c.Streams {
			if cs.Stream < 0 || cs.Stream >= in.NumStreams {
				return fmt.Errorf("mip: class %d references stream %d of %d", ci, cs.Stream, in.NumStreams)
			}
			if len(cs.Card) != in.NumGroups || len(cs.SW) != in.NumGroups {
				return fmt.Errorf("mip: class %d stream %d stats cover %d/%d groups, want %d",
					ci, cs.Stream, len(cs.Card), len(cs.SW), in.NumGroups)
			}
			for g := 0; g < in.NumGroups; g++ {
				if cs.Card[g] < 0 || cs.SW[g] < 0 || cs.SW[g] > 1 {
					return fmt.Errorf("mip: class %d stream %d group %d has Card=%v SW=%v", ci, cs.Stream, g, cs.Card[g], cs.SW[g])
				}
			}
		}
	}
	return nil
}

// Status reports how a solve ended.
type Status int

const (
	// Optimal: the search space was exhausted; the incumbent is optimal.
	Optimal Status = iota
	// GapReached: the incumbent is within the requested optimality gap.
	GapReached
	// Budget: the time or node budget expired first; the incumbent is
	// the best found so far (the CPLEX "best result up to that point"
	// behaviour the paper's heuristic 3 relies on).
	Budget
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case GapReached:
		return "gap-reached"
	case Budget:
		return "budget"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Options are the solver controls of Section IV.
type Options struct {
	// RelGap stops the search once (incumbent−bound)/incumbent ≤ RelGap.
	RelGap float64
	// TimeBudget bounds wall-clock solve time (0 = unbounded).
	TimeBudget time.Duration
	// MaxNodes bounds explored branch-and-bound nodes (0 = unbounded).
	MaxNodes int64

	// Prefer anchors the search to an incumbent assignment
	// (Prefer[class][group] = partition, -1 for none): preferred
	// partitions are explored first and win cost ties, so solutions
	// move as few key groups as possible — the incremental updates of
	// the paper's Fig. 3 rather than a wholesale re-shuffle.
	Prefer [][]int
	// MoveCost, when set alongside Prefer, charges assigning (class c,
	// group g) away from its preferred partition MoveCost[c]·Weight·Card
	// — the amortized cost of re-shipping the group's window state. The
	// reported Objective then includes movement, so callers can compare
	// it directly against the incumbent plan's score.
	MoveCost []float64

	// Incumbent, when non-nil, seeds the search with a known-feasible
	// assignment (Incumbent[class][group] = partition): its objective
	// becomes the initial upper bound, tightening pruning from node 0.
	// A shape mismatch is an error, but an incumbent with any partition
	// outside [0, NumPartitions) is silently ignored — a stale seed
	// (e.g. one computed before the partition domain shrank) must never
	// anchor the search to an infeasible plan.
	Incumbent [][]int
}

// Result is a solve outcome. Assign[c][g] is the partition of class c's
// key group g.
type Result struct {
	Status    Status
	Assign    [][]int
	Objective float64
	Bound     float64 // proven lower bound
	Nodes     int64
	Elapsed   time.Duration
}

// Gap reports the relative optimality gap of the result.
func (r *Result) Gap() float64 {
	if r.Objective <= 0 {
		return 0
	}
	g := (r.Objective - r.Bound) / r.Objective
	if g < 0 {
		return 0
	}
	return g
}

// Solve runs branch and bound on the instance.
func Solve(in *Instance, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opt.Prefer != nil {
		if len(opt.Prefer) != len(in.Classes) {
			return nil, fmt.Errorf("mip: Prefer covers %d classes, want %d", len(opt.Prefer), len(in.Classes))
		}
		for ci, row := range opt.Prefer {
			if len(row) != in.NumGroups {
				return nil, fmt.Errorf("mip: Prefer class %d covers %d groups, want %d", ci, len(row), in.NumGroups)
			}
		}
	}
	if opt.MoveCost != nil && len(opt.MoveCost) != len(in.Classes) {
		return nil, fmt.Errorf("mip: MoveCost covers %d classes, want %d", len(opt.MoveCost), len(in.Classes))
	}
	if opt.Incumbent != nil {
		if len(opt.Incumbent) != len(in.Classes) {
			return nil, fmt.Errorf("mip: Incumbent covers %d classes, want %d", len(opt.Incumbent), len(in.Classes))
		}
		for ci, row := range opt.Incumbent {
			if len(row) != in.NumGroups {
				return nil, fmt.Errorf("mip: Incumbent class %d covers %d groups, want %d", ci, len(row), in.NumGroups)
			}
		}
	}
	s := newSolver(in, opt)
	return s.run(), nil
}

// Evaluate computes the exact objective of a full assignment, used by
// heuristics to score composed solutions and by tests as an oracle.
func Evaluate(in *Instance, assign [][]int) float64 {
	meanLat := meanOf(in.LatP)
	var cost float64
	load := make([][]float64, in.NumStreams)
	for s := range load {
		load[s] = make([]float64, in.NumPartitions)
	}
	shMax := make([]float64, in.NumStreams*in.NumPartitions)
	unsh := make([]float64, in.NumStreams*in.NumPartitions)
	for g := 0; g < in.NumGroups; g++ {
		clear(shMax)
		clear(unsh)
		for ci, c := range in.Classes {
			p := assign[ci][g]
			for _, cs := range c.Streams {
				k := cs.Stream*in.NumPartitions + p
				sh := cs.Card[g] * cs.SW[g]
				if sh > shMax[k] {
					shMax[k] = sh
				}
				unsh[k] += cs.Card[g] * (1 - cs.SW[g])
				load[cs.Stream][p] += c.Weight * cs.Card[g]
			}
		}
		for s := 0; s < in.NumStreams; s++ {
			for p := 0; p < in.NumPartitions; p++ {
				k := s*in.NumPartitions + p
				cost += in.LatP[p] * (shMax[k] + unsh[k])
			}
		}
	}
	for s := 0; s < in.NumStreams; s++ {
		m := 0.0
		for _, l := range load[s] {
			if l > m {
				m = l
			}
		}
		cost += m * in.LatProc * meanLat
	}
	return cost
}

// MovementPenalty scores the amortized window-state movement of an
// assignment relative to the anchor in opt (0 when unanchored).
func MovementPenalty(in *Instance, opt Options, assign [][]int) float64 {
	if opt.Prefer == nil || opt.MoveCost == nil {
		return 0
	}
	var total float64
	for ci, c := range in.Classes {
		for g := 0; g < in.NumGroups; g++ {
			pref := opt.Prefer[ci][g]
			if pref < 0 || assign[ci][g] == pref {
				continue
			}
			for _, cs := range c.Streams {
				total += opt.MoveCost[ci] * c.Weight * cs.Card[g]
			}
		}
	}
	return total
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// solver holds the branch-and-bound working state. Decisions are
// ordered group-major (all classes of group 0, then group 1, ...), so
// the max-sharing term of a group is finalized before the next group
// starts, allowing exact incremental cost accounting.
type solver struct {
	in  *Instance
	opt Options

	minLat  float64
	meanLat float64

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
	// balanced[s] is stream s's total weighted cards over the partition
	// count: every card is eventually assigned, so it floors the final
	// makespan from below.
	balanced []float64

	// dec[d] is the decision taken at search depth d, in group-major
	// order. Every product a node needs that does not depend on the
	// search state is computed once per solve: the decision's anchor and
	// movement bill, and in terms[dec.lo:dec.hi] one entry per stream
	// its class reads. unshLat[t·P+p] is term t's unshareable traffic on
	// partition p, computed as (LatP[p]·Card)·(1−SW): regrouping a
	// product changes its bits, and with them the candidate order, the
	// node count and on ties the plan.
	dec     []decision
	terms   []term
	unshLat []float64

	// Search state.
	choice    []int     // partition chosen at each depth
	load      []float64 // per (stream, partition), row st·P
	maxLoad   []float64 // per stream running max
	shMax     []float64 // current group: per (stream, partition)
	trafficSo float64   // finalized + current-group partial traffic cost

	best       float64
	bestAssign [][]int
	bound      float64 // best proven global lower bound (root)
	// gapDone caches gapReached(): the bound is fixed during the search,
	// so the answer changes only when the incumbent does.
	gapDone bool

	// cands holds the candidate partitions of every search depth, one
	// NumPartitions-wide stripe per (group, class) decision: a frame's
	// candidates must outlive its recursive calls, and a stripe per depth
	// gives each frame its own without allocating per node.
	cands []cand

	nodes    int64
	maxNodes int64 // node cap; math.MaxInt64 when unbounded
	nodeStop int64 // budgetExpired runs once nodes passes it
	deadline time.Time
	timedOut bool
}

// decision is one (group, class) branching step.
type decision struct {
	g, ci    int
	pref     int     // anchored partition, -1 for none
	moveCost float64 // movement bill of any partition but pref
	lo, hi   int     // the class's streams: terms[lo:hi]
}

// term is one stream a decision's class reads, at the decision's group.
type term struct {
	st    int     // stream
	k0    int     // st·NumPartitions: the stream's row in load and shMax
	sh    float64 // Card·SW: the shareable volume
	wcard float64 // Weight·Card: the load the placement adds
}

// cand is one candidate partition of a decision: its marginal traffic
// cost and the ordering key (traffic plus marginal makespan, with the
// anchored partition nudged ahead of near-ties).
type cand struct {
	p     int
	delta float64
	key   float64
}

func newSolver(in *Instance, opt Options) *solver {
	s := &solver{in: in, opt: opt}
	s.minLat = math.Inf(1)
	for _, l := range in.LatP {
		if l < s.minLat {
			s.minLat = l
		}
	}
	s.meanLat = meanOf(in.LatP)

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
	s.balanced = make([]float64, in.NumStreams)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			for g := 0; g < in.NumGroups; g++ {
				s.balanced[cs.Stream] += c.Weight * cs.Card[g]
			}
		}
	}
	for st := range s.balanced {
		s.balanced[st] /= float64(in.NumPartitions)
	}

	P := in.NumPartitions
	nt := 0
	for _, c := range in.Classes {
		nt += len(c.Streams)
	}
	s.dec = make([]decision, 0, n*nc)
	s.terms = make([]term, 0, n*nt)
	s.unshLat = make([]float64, 0, n*nt*P)
	for _, g := range s.groupOrder {
		for ci := range in.Classes {
			c := &in.Classes[ci]
			dc := decision{g: g, ci: ci, pref: -1, lo: len(s.terms)}
			if opt.Prefer != nil {
				dc.pref = opt.Prefer[ci][g]
			}
			if dc.pref >= 0 && opt.MoveCost != nil {
				for _, cs := range c.Streams {
					dc.moveCost += opt.MoveCost[ci] * c.Weight * cs.Card[g]
				}
			}
			for _, cs := range c.Streams {
				s.terms = append(s.terms, term{
					st: cs.Stream, k0: cs.Stream * P,
					sh: cs.Card[g] * cs.SW[g], wcard: c.Weight * cs.Card[g],
				})
				for p := 0; p < P; p++ {
					s.unshLat = append(s.unshLat, in.LatP[p]*cs.Card[g]*(1-cs.SW[g]))
				}
			}
			dc.hi = len(s.terms)
			s.dec = append(s.dec, dc)
		}
	}

	s.bestAssign = make([][]int, nc)
	for ci := range s.bestAssign {
		s.bestAssign[ci] = make([]int, in.NumGroups)
	}
	s.choice = make([]int, len(s.dec))
	s.load = make([]float64, in.NumStreams*P)
	s.maxLoad = make([]float64, in.NumStreams)
	s.shMax = make([]float64, in.NumStreams*P)
	s.maxNodes = math.MaxInt64
	if opt.MaxNodes > 0 {
		s.maxNodes = opt.MaxNodes
	}
	return s
}

func (s *solver) run() *Result {
	start := time.Now()
	s.nodeStop = s.maxNodes
	if s.opt.TimeBudget > 0 {
		s.deadline = start.Add(s.opt.TimeBudget)
		s.nodeStop = min(s.maxNodes, 1023)
	}

	// Greedy incumbent so a budget exit always has a feasible answer.
	// Movement penalties are part of the solver's objective whenever an
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

	s.gapDone = s.gapReached()
	if !s.gapDone {
		s.cands = make([]cand, len(s.dec)*s.in.NumPartitions)
		s.dfs(0)
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
	case s.gapDone:
		res.Status = GapReached
		res.Bound = s.bound
	default:
		// Search exhausted: the incumbent is optimal and the bound tight.
		res.Status = Optimal
		res.Bound = s.best
	}
	return res
}

func (s *solver) gapReached() bool {
	if s.best <= s.bound {
		return true
	}
	if s.opt.RelGap > 0 && (s.best-s.bound)/s.best <= s.opt.RelGap {
		return true
	}
	return false
}

// budgetExpired runs once the node count passes nodeStop: at the node
// cap, or at the next multiple of 1024 nodes when a deadline is set,
// where the clock is read.
func (s *solver) budgetExpired() bool {
	if s.nodes > s.maxNodes || time.Now().After(s.deadline) {
		s.timedOut = true
		return true
	}
	s.nodeStop = min(s.maxNodes, s.nodes+1023)
	return false
}

// dfs takes decision s.dec[depth]. When a group's last class is placed,
// the group's traffic is already folded into trafficSo.
func (s *solver) dfs(depth int) {
	if depth == len(s.dec) {
		obj := s.trafficSo + s.makespanCost()
		if obj < s.best {
			s.best = obj
			for d, dc := range s.dec {
				s.bestAssign[dc.ci][dc.g] = s.choice[d]
			}
			s.gapDone = s.gapReached()
		}
		return
	}
	dc := &s.dec[depth]
	// The search state lives in slices that never grow: local headers
	// keep them in registers across the stores below.
	shMax, load, maxLoad, latP := s.shMax, s.load, s.maxLoad, s.in.LatP
	latProc, meanLat := s.in.LatProc, s.meanLat
	if dc.ci == 0 {
		// Entering a new group: reset its sharing accumulators.
		clear(shMax)
	}
	P := s.in.NumPartitions
	terms := s.terms[dc.lo:dc.hi]
	unshLat := s.unshLat[dc.lo*P : dc.hi*P]

	// Candidate partitions ordered by marginal traffic cost; cheapest
	// first maximizes early pruning. The anchored partition sorts ahead
	// of equal-cost alternatives (and marginally ahead of near-ties),
	// so the first — and on ties, the returned — solution stays close
	// to the incumbent assignment.
	pref := dc.pref
	cands := s.cands[depth*P : depth*P : (depth+1)*P]
	for p := 0; p < P; p++ {
		var d, mk float64
		for i := range terms {
			t := &terms[i]
			k := t.k0 + p
			if sh := shMax[k]; t.sh > sh {
				d += latP[p] * (t.sh - sh)
			}
			d += unshLat[i*P+p]
			// Marginal makespan increase if this placement raises the
			// stream's max load — ordering signal only; the true
			// makespan cost is settled at the leaves.
			if nl, m := load[k]+t.wcard, maxLoad[t.st]; nl > m {
				mk += (nl - m) * latProc * meanLat
			}
		}
		if p != pref {
			d += dc.moveCost
		}
		key := d + mk
		if p == pref {
			key *= 0.999
		}
		// Insertion sort by (key, is-anchor, partition id): a strict total
		// order, so the result is the one any comparison sort would give.
		// Partitions arrive in ascending id, which settles the last
		// tie-break: an equal earlier entry stays ahead.
		c := cand{p: p, delta: d, key: key}
		i := len(cands)
		cands = cands[:i+1]
		for ; i > 0 && (c.key < cands[i-1].key || (c.key == cands[i-1].key && p == pref)); i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}

	for _, cd := range cands {
		s.nodes++
		if s.nodes > s.nodeStop && s.budgetExpired() || s.gapDone {
			return
		}
		p := cd.p
		// Apply.
		s.choice[depth] = p
		s.trafficSo += cd.delta
		var shOld, maxOld [maxClassStreams]float64
		for i := range terms {
			t := &terms[i]
			k := t.k0 + p
			shOld[i] = shMax[k]
			maxOld[i] = maxLoad[t.st]
			if t.sh > shMax[k] {
				shMax[k] = t.sh
			}
			l := load[k] + t.wcard
			load[k] = l
			if l > maxLoad[t.st] {
				maxLoad[t.st] = l
			}
		}

		// Bound: finalized traffic + optimistic remainder + makespan LB.
		lb := s.trafficSo + s.remainderLB[depth+1] + s.makespanLB()
		if lb < s.best {
			s.dfs(depth + 1)
		}

		// Revert, last stream first: a class may read one stream twice,
		// and the loads are subtracted in the reverse order of their adds.
		for i := len(terms) - 1; i >= 0; i-- {
			t := &terms[i]
			k := t.k0 + p
			shMax[k] = shOld[i]
			load[k] -= t.wcard
			maxLoad[t.st] = maxOld[i]
		}
		s.trafficSo -= cd.delta
		if s.timedOut {
			return
		}
	}
}

// makespanLB bounds the post-partition cost: per stream, the larger of
// the current max load and the perfectly balanced total.
func (s *solver) makespanLB() float64 {
	var lb float64
	for st, m := range s.maxLoad {
		if b := s.balanced[st]; b > m {
			m = b
		}
		lb += m * s.in.LatProc * s.meanLat
	}
	return lb
}

func (s *solver) makespanCost() float64 {
	var c float64
	for _, m := range s.maxLoad {
		c += m * s.in.LatProc * s.meanLat
	}
	return c
}

// anchorAssign returns the Prefer table as a complete assignment, or
// nil when no complete anchor is set.
func (s *solver) anchorAssign() [][]int {
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
func (s *solver) feasibleIncumbent() [][]int {
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

// greedy builds the initial incumbent: decision by decision in search
// order, each takes the partition minimizing marginal traffic plus the
// true marginal makespan increase (how much the placement raises the
// stream's max load), plus the movement penalty when anchored.
func (s *solver) greedy() [][]int {
	in := s.in
	P := in.NumPartitions
	assign := make([][]int, len(in.Classes))
	for ci := range assign {
		assign[ci] = make([]int, in.NumGroups)
	}
	load := make([]float64, in.NumStreams*P)
	maxLoad := make([]float64, in.NumStreams)
	shMax := make([]float64, in.NumStreams*P)
	lambda := s.in.LatProc * s.meanLat

	for _, dc := range s.dec {
		if dc.ci == 0 {
			clear(shMax)
		}
		terms := s.terms[dc.lo:dc.hi]
		unshLat := s.unshLat[dc.lo*P : dc.hi*P]
		bestP, bestCost := 0, math.Inf(1)
		for p := 0; p < P; p++ {
			var d float64
			for i, t := range terms {
				k := t.k0 + p
				if t.sh > shMax[k] {
					d += in.LatP[p] * (t.sh - shMax[k])
				}
				d += unshLat[i*P+p]
				if nl := load[k] + t.wcard; nl > maxLoad[t.st] {
					d += (nl - maxLoad[t.st]) * lambda
				}
			}
			if p != dc.pref {
				d += dc.moveCost
			} else {
				d *= 0.999
			}
			if d < bestCost {
				bestCost, bestP = d, p
			}
		}
		assign[dc.ci][dc.g] = bestP
		for _, t := range terms {
			k := t.k0 + bestP
			if t.sh > shMax[k] {
				shMax[k] = t.sh
			}
			load[k] += t.wcard
			if load[k] > maxLoad[t.st] {
				maxLoad[t.st] = load[k]
			}
		}
	}
	return assign
}
