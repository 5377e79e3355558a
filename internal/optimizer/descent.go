package optimizer

import "saspar/internal/mip"

// descentScorer prices coordinatedDescent's trial moves — every class
// of one key group placed on one partition — and returns for each the
// same float64 bits as mip.Evaluate + mip.MovementPenalty on the trial
// assignment.
//
// Both are ordered sums, and float addition does not associate, so the
// scorer replays every sum in its own order and saves only the work a
// trial cannot change. hoist(g) folds what precedes group g and caches
// what follows it; trial(p) adds g's own addends on p, then the cached
// ones after them. Addends with a zero factor are skipped throughout: a
// running sum that starts at +0 never reaches −0, so adding ±0 leaves
// it unchanged. Every addend is kept as its two factors and added as
// sum += a*b, the expression package mip folds, so a compiler that
// fuses a multiply into an add fuses both sides alike.
//
// A trial costs g's class-stream entries, the traffic terms of the
// groups after g, partition p's load entries after g and the priced
// moves of other groups — not a rescoring of every group, class and
// partition.
type descentScorer struct {
	in      *mip.Instance
	cur     [][]int // the descent's assignment; move updates it
	prefer  [][]int // the anchor, nil when moves are free
	np      int
	meanLat float64

	// Class-stream entries in (class, stream) order, the inner order
	// of both sums. Entry e reads stream entStream[e] for class
	// entClass[e] of weight entW[e]; class c owns entries
	// clsStart[c]..clsStart[c+1].
	entClass, entStream []int
	entW                []float64
	clsStart            []int
	card                []float64 // [g*E+e] the entry's cardinality in group g
	mw                  []float64 // per class: MoveCost·Weight, nil when moves are free

	terms [][]term // per group: its non-zero traffic terms in (stream, partition) order

	// Hoisted for group g.
	g       int
	pre     float64   // traffic fold of the groups before g
	au      []float64 // per stream: g's shared max + unshared sum with every class on one partition
	prefix  []float64 // [s*P+p] load fold of the groups before g
	without []float64 // [s*P+p] load of every group but g
	suffix  [][]term  // [s*P+p] load entries of the groups after g
	penPre  float64   // movement fold up to (class 0, g)
	seg     []term    // priced moves between (class c, g) and (class c+1, g)
	segEnd  []int     // per class: end of its part of seg

	shMax, lp []float64 // per-stream scratch
}

// term is one addend a·b of an ordered sum.
type term struct{ a, b float64 }

// newDescentScorer prepares the scorer for an assignment the descent
// owns: cur is read on every hoist and written by move.
func newDescentScorer(in *mip.Instance, anchorOpts mip.Options, cur [][]int) *descentScorer {
	np, ns, ng := in.NumPartitions, in.NumStreams, in.NumGroups
	sc := &descentScorer{in: in, cur: cur, np: np}
	// mip.Evaluate's mean, summed the same way.
	for _, l := range in.LatP {
		sc.meanLat += l
	}
	sc.meanLat /= float64(len(in.LatP))

	for ci, c := range in.Classes {
		sc.clsStart = append(sc.clsStart, len(sc.entClass))
		for _, cs := range c.Streams {
			sc.entClass = append(sc.entClass, ci)
			sc.entStream = append(sc.entStream, cs.Stream)
			sc.entW = append(sc.entW, c.Weight)
		}
	}
	sc.clsStart = append(sc.clsStart, len(sc.entClass))
	ne := len(sc.entClass)
	sc.card = make([]float64, ng*ne)
	for g := 0; g < ng; g++ {
		e := g * ne
		for _, c := range in.Classes {
			for _, cs := range c.Streams {
				sc.card[e] = cs.Card[g]
				e++
			}
		}
	}
	if anchorOpts.Prefer != nil && anchorOpts.MoveCost != nil {
		sc.prefer = anchorOpts.Prefer
		sc.mw = make([]float64, len(in.Classes))
		for ci, c := range in.Classes {
			sc.mw[ci] = anchorOpts.MoveCost[ci] * c.Weight
		}
		sc.segEnd = make([]int, len(in.Classes))
	}

	// A group has at most one non-zero term per (stream, partition) it
	// has an entry on.
	width := min(ns*np, ne)
	backing := make([]term, ng*width)
	sc.terms = make([][]term, ng)
	shMax := make([]float64, ns*np)
	unsh := make([]float64, ns*np)
	for g := range sc.terms {
		clear(shMax)
		clear(unsh)
		for ci, c := range in.Classes {
			p := cur[ci][g]
			for _, cs := range c.Streams {
				k := cs.Stream*np + p
				sh := cs.Card[g] * cs.SW[g]
				if sh > shMax[k] {
					shMax[k] = sh
				}
				unsh[k] += cs.Card[g] * (1 - cs.SW[g])
			}
		}
		ts := backing[g*width : g*width : (g+1)*width]
		for k := range shMax {
			if lat, x := in.LatP[k%np], shMax[k]+unsh[k]; lat != 0 && x != 0 {
				ts = append(ts, term{lat, x})
			}
		}
		sc.terms[g] = ts
	}

	sc.au = make([]float64, ns)
	sc.shMax = make([]float64, ns)
	sc.lp = make([]float64, ns)
	sc.prefix = make([]float64, ns*np)
	sc.without = make([]float64, ns*np)
	sc.suffix = make([][]term, ns*np)
	return sc
}

// hoist prepares the trials of group g: everything in them that does
// not depend on the partition g moves to.
func (sc *descentScorer) hoist(g int) {
	in, np, ne := sc.in, sc.np, len(sc.entClass)
	sc.g = g

	sc.pre = 0
	for _, ts := range sc.terms[:g] {
		for _, t := range ts {
			sc.pre += t.a * t.b
		}
	}
	// With every class on one partition, each stream's share of g is
	// one (stream, partition) cell, whichever the partition.
	clear(sc.shMax)
	clear(sc.au)
	for _, c := range in.Classes {
		for _, cs := range c.Streams {
			sh := cs.Card[g] * cs.SW[g]
			if sh > sc.shMax[cs.Stream] {
				sc.shMax[cs.Stream] = sh
			}
			sc.au[cs.Stream] += cs.Card[g] * (1 - cs.SW[g])
		}
	}
	for s, sh := range sc.shMax {
		sc.au[s] = sh + sc.au[s]
	}

	clear(sc.prefix)
	for k := range sc.suffix {
		sc.suffix[k] = sc.suffix[k][:0]
	}
	for h := range sc.terms {
		if h == g {
			copy(sc.without, sc.prefix)
			continue
		}
		for e, card := range sc.card[h*ne : (h+1)*ne] {
			if card == 0 {
				continue
			}
			k := sc.entStream[e]*np + sc.cur[sc.entClass[e]][h]
			if h < g {
				sc.prefix[k] += sc.entW[e] * card
			} else {
				sc.without[k] += sc.entW[e] * card
				sc.suffix[k] = append(sc.suffix[k], term{sc.entW[e], card})
			}
		}
	}

	if sc.prefer == nil {
		return
	}
	sc.penPre = 0
	sc.seg = sc.seg[:0]
	for ci, row := range sc.prefer {
		for h, pf := range row {
			if h == g {
				if ci > 0 {
					sc.segEnd[ci-1] = len(sc.seg)
				}
				continue
			}
			if pf < 0 || sc.cur[ci][h] == pf || sc.mw[ci] == 0 {
				continue
			}
			for _, card := range sc.card[h*ne+sc.clsStart[ci] : h*ne+sc.clsStart[ci+1]] {
				if card == 0 {
					continue
				}
				if ci == 0 && h < g {
					sc.penPre += sc.mw[ci] * card
				} else {
					sc.seg = append(sc.seg, term{sc.mw[ci], card})
				}
			}
		}
	}
	sc.segEnd[len(sc.segEnd)-1] = len(sc.seg)
}

// trial scores the assignment with every class of the hoisted group on
// partition p.
func (sc *descentScorer) trial(p int) float64 {
	in, np, g, ne := sc.in, sc.np, sc.g, len(sc.entClass)
	cost := sc.pre
	for _, x := range sc.au {
		if x != 0 && in.LatP[p] != 0 {
			cost += in.LatP[p] * x
		}
	}
	for _, ts := range sc.terms[g+1:] {
		for _, t := range ts {
			cost += t.a * t.b
		}
	}

	row := sc.card[g*ne : (g+1)*ne]
	for s := range sc.lp {
		sc.lp[s] = sc.prefix[s*np+p]
	}
	for e, card := range row {
		if card != 0 {
			sc.lp[sc.entStream[e]] += sc.entW[e] * card
		}
	}
	for s, l := range sc.lp {
		for _, t := range sc.suffix[s*np+p] {
			l += t.a * t.b
		}
		m := 0.0
		for q, lq := range sc.without[s*np : (s+1)*np] {
			if q == p {
				lq = l
			}
			if lq > m {
				m = lq
			}
		}
		cost += m * in.LatProc * sc.meanLat
	}

	pen := 0.0
	if sc.prefer != nil {
		pen = sc.penPre
		start := 0
		for ci, end := range sc.segEnd {
			if pf := sc.prefer[ci][g]; pf >= 0 && p != pf && sc.mw[ci] != 0 {
				for _, card := range row[sc.clsStart[ci]:sc.clsStart[ci+1]] {
					if card != 0 {
						pen += sc.mw[ci] * card
					}
				}
			}
			for _, t := range sc.seg[start:end] {
				pen += t.a * t.b
			}
			start = end
		}
	}
	return cost + pen
}

// move places every class of the hoisted group on partition p.
func (sc *descentScorer) move(p int) {
	g := sc.g
	for _, row := range sc.cur {
		row[g] = p
	}
	ts := sc.terms[g][:0]
	if lat := sc.in.LatP[p]; lat != 0 {
		for _, x := range sc.au {
			if x != 0 {
				ts = append(ts, term{lat, x})
			}
		}
	}
	sc.terms[g] = ts
}
