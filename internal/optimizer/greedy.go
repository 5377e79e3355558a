package optimizer

import (
	"sort"

	"saspar/internal/mip"
)

// This file is the streaming greedy partitioner tier: one pass over the
// stats snapshot in O(groups × partitions), PARSA-style — a short
// warm-up prefix of heavy groups seeds per-partition load, then every
// key group is placed greedily using a per-group cost vector over the
// partitions and a per-partition neighbor-set bitmap of the classes
// already co-placed there. It exists because branch and bound blows up
// exponentially with instance size (paper Fig. 8a): above
// Options.GreedyThreshold the greedy plan ships as-is, below it the
// plan seeds B&B's initial incumbent so pruning starts tight.
//
// The cost vector mirrors the exact model's marginal terms — shared
// traffic counts once per (stream, partition) via a running per-group
// max, unshared traffic always, plus the true increase of the stream
// makespan and the movement penalty for anchored groups — so the greedy
// objective is comparable with (and scored by) mip.Evaluate.

// greedyComponent solves one component entirely with the greedy tier.
func greedyComponent(req *Request, c *component, opt Options) *componentResult {
	orig := buildInstance(req, c)
	anchorOpts := buildAnchor(req, c, opt)
	assign := greedyAssign(orig, anchorOpts)
	cr := &componentResult{
		comp:       c,
		assign:     assign,
		objective:  mip.Evaluate(orig, assign) + mip.MovementPenalty(orig, anchorOpts, assign),
		heuristics: []string{HeurGreedy},
		via:        HeurGreedy,
	}
	// Staying put remains a candidate, exactly as in the cascade: the
	// greedy plan must beat the incumbent including its movement bill.
	// An anchor with out-of-domain rows (NoPartition after a
	// restricted-domain remap) is not feasible and is never seeded.
	if p := anchorOpts.Prefer; p != nil && anchorFeasible(p, orig.NumPartitions) {
		if obj := mip.Evaluate(orig, p); obj < cr.objective {
			rows := make([][]int, len(p))
			for i, row := range p {
				rows[i] = append([]int(nil), row...)
			}
			cr.assign = rows
			cr.objective = obj
		}
	}
	return cr
}

// greedyState carries the single pass. Loads are global across the
// pass; sharing state (shMax, neighbor bitmaps) is local to the group
// being placed, since the cost model couples classes only within a
// group.
type greedyState struct {
	in       *mip.Instance
	lambda   float64 // LatProc · mean(LatP), the makespan weight
	prefer   [][]int
	moveCost []float64
	assign   [][]int

	load    [][]float64 // [stream][partition] weighted load
	maxLoad []float64   // [stream] current makespan

	// Per-group scratch, reset before each placement:
	shMax []float64  // [stream·P+p] running shared-traffic max
	nbr   [][]uint64 // [partition] bitmap of classes co-placed there
	cnt   []int      // [partition] popcount of nbr
}

// greedyAssign runs the streaming pass over an instance.
func greedyAssign(in *mip.Instance, anchorOpts mip.Options) [][]int {
	P, G, S := in.NumPartitions, in.NumGroups, in.NumStreams
	var mean float64
	for _, l := range in.LatP {
		mean += l
	}
	mean /= float64(P)
	st := &greedyState{
		in:       in,
		lambda:   in.LatProc * mean,
		prefer:   anchorOpts.Prefer,
		moveCost: anchorOpts.MoveCost,
		assign:   make([][]int, len(in.Classes)),
		load:     make([][]float64, S),
		maxLoad:  make([]float64, S),
		shMax:    make([]float64, S*P),
		nbr:      make([][]uint64, P),
		cnt:      make([]int, P),
	}
	for ci := range st.assign {
		st.assign[ci] = make([]int, G)
	}
	for s := range st.load {
		st.load[s] = make([]float64, P)
	}
	words := (len(in.Classes) + 63) / 64
	for p := range st.nbr {
		st.nbr[p] = make([]uint64, words)
	}

	// Heaviest groups first, matching the exact solver's branching
	// order: early decisions carry the most traffic, so placing them
	// first gives later, lighter groups a realistic load picture.
	weight := make([]float64, G)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			for g, card := range cs.Card {
				weight[g] += card
			}
		}
	}
	order := make([]int, G)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })

	// Warm-up block: the heaviest prefix is spread by pure load
	// balance to seed per-partition load, then (neighbor sets cleared)
	// re-placed by the full cost vector in the touch-up pass below.
	warm := P
	if warm > G/4 {
		warm = G / 4
	}
	for _, g := range order[:warm] {
		st.placeLeastLoaded(g)
	}
	for _, g := range order[warm:] {
		st.placeGroup(g)
	}
	for _, g := range order[:warm] {
		st.removeGroup(g)
		st.placeGroup(g)
	}
	return st.assign
}

// placeLeastLoaded is the warm-up placement: the whole group (all
// classes together) lands on the partition with the least total load.
func (st *greedyState) placeLeastLoaded(g int) {
	bestP, bestL := 0, 0.0
	for p := 0; p < st.in.NumPartitions; p++ {
		var l float64
		for s := 0; s < st.in.NumStreams; s++ {
			l += st.load[s][p]
		}
		if p == 0 || l < bestL {
			bestP, bestL = p, l
		}
	}
	for ci, c := range st.in.Classes {
		st.assign[ci][g] = bestP
		for _, cs := range c.Streams {
			st.addLoad(cs.Stream, bestP, c.Weight*cs.Card[g])
		}
	}
}

// placeGroup runs the per-key cost vector for every class of group g
// and commits the argmin placements, maintaining the group's sharing
// maxima and neighbor-set bitmaps as classes land.
func (st *greedyState) placeGroup(g int) {
	in := st.in
	P := in.NumPartitions
	for i := range st.shMax {
		st.shMax[i] = 0
	}
	for p := 0; p < P; p++ {
		st.cnt[p] = 0
		w := st.nbr[p]
		for i := range w {
			w[i] = 0
		}
	}
	for ci := range in.Classes {
		c := &in.Classes[ci]
		pref := -1
		if st.prefer != nil {
			if p := st.prefer[ci][g]; p >= 0 && p < P {
				pref = p
			}
		}
		var moveTot float64
		if pref >= 0 && st.moveCost != nil {
			for _, cs := range c.Streams {
				moveTot += st.moveCost[ci] * c.Weight * cs.Card[g]
			}
		}
		bestP, bestKey, bestN := -1, 0.0, -1
		for p := 0; p < P; p++ {
			var d float64
			for _, cs := range c.Streams {
				k := cs.Stream*P + p
				sh := cs.Card[g] * cs.SW[g]
				if m := sh - st.shMax[k]; m > 0 {
					d += in.LatP[p] * m
				}
				d += in.LatP[p] * (cs.Card[g] * (1 - cs.SW[g]))
				if inc := st.load[cs.Stream][p] + c.Weight*cs.Card[g] - st.maxLoad[cs.Stream]; inc > 0 {
					d += st.lambda * inc
				}
			}
			key := d
			if pref >= 0 {
				if p == pref {
					key *= 0.999 // anchored partitions win exact ties
				} else {
					key += moveTot
				}
			}
			// Neighbor-set tie-break: among equal-cost partitions,
			// prefer the one already hosting classes of this group —
			// co-placement keeps future sharing opportunities alive.
			if bestP < 0 || key < bestKey || (key == bestKey && st.cnt[p] > bestN) {
				bestP, bestKey, bestN = p, key, st.cnt[p]
			}
		}
		st.assign[ci][g] = bestP
		for _, cs := range c.Streams {
			k := cs.Stream*P + bestP
			if sh := cs.Card[g] * cs.SW[g]; sh > st.shMax[k] {
				st.shMax[k] = sh
			}
			st.addLoad(cs.Stream, bestP, c.Weight*cs.Card[g])
		}
		st.nbr[bestP][uint(ci)/64] |= 1 << (uint(ci) % 64)
		st.cnt[bestP]++
	}
}

// removeGroup undoes group g's load contribution (used by the warm-up
// touch-up) and recomputes the affected stream makespans.
func (st *greedyState) removeGroup(g int) {
	for ci, c := range st.in.Classes {
		p := st.assign[ci][g]
		for _, cs := range c.Streams {
			st.load[cs.Stream][p] -= c.Weight * cs.Card[g]
		}
	}
	for s := range st.maxLoad {
		m := 0.0
		for _, l := range st.load[s] {
			if l > m {
				m = l
			}
		}
		st.maxLoad[s] = m
	}
}

func (st *greedyState) addLoad(s, p int, w float64) {
	st.load[s][p] += w
	if st.load[s][p] > st.maxLoad[s] {
		st.maxLoad[s] = st.load[s][p]
	}
}
