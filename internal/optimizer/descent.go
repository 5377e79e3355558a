package optimizer

import (
	"slices"

	"saspar/internal/mip"
)

// descentScorer prices coordinatedDescent's trial moves — every class
// of one key group placed on one partition — and returns for each the
// same float64 bits as mip.Evaluate + mip.MovementPenalty on the trial
// assignment.
//
// Both are ordered sums, and float addition does not associate, so the
// scorer replays every sum in its own order and saves only the work a
// trial cannot change. Addends with a zero factor are skipped
// throughout: a running sum that starts at +0 never reaches −0, so
// adding ±0 leaves it unchanged. Every addend is kept as its two
// factors and added as sum += a*b, the expression package mip folds, so
// a compiler that fuses a multiply into an add fuses both sides alike.
//
// The scorer keeps the assignment's addends in lanes, each in its sum's
// order with running folds: per group its traffic terms, per (stream,
// partition) cell its load entries, per class its priced moves. A lane
// is indexed by group, so a prefix of it is the fold of the groups
// before g, read off in O(1). hoist(g) reads those prefixes and refolds
// only the cells g occupies; move(p) splices g's addends out of the
// lanes they leave and into the ones they join, and refolds only from
// g on. A trial then costs g's class-stream entries, the traffic terms
// of the groups after g, partition p's load entries after g and the
// priced moves of other groups — the addends that follow g's in each
// sum, which no fold can skip.
type descentScorer struct {
	in      *mip.Instance
	cur     [][]int // the descent's assignment; move updates it
	prefer  [][]int // the anchor, nil when moves are free
	np, ng  int
	meanLat float64

	// Class-stream entries in (class, stream) order, the inner order
	// of both sums. Entry e reads stream entStream[e] for class
	// entClass[e] of weight entW[e]; class c owns entries
	// clsStart[c]..clsStart[c+1].
	entClass, entStream []int
	entW                []float64
	clsStart            []int
	card                []float64 // [g*E+e] the entry's cardinality in group g
	au                  []float64 // [g*S+s] g's shared max + unshared sum with every class on one partition
	mw                  []float64 // per class: MoveCost·Weight, nil when moves are free

	terms [][]term  // per group: its non-zero traffic terms in (stream, partition) order
	tfold []float64 // [h] traffic fold of the groups before h

	cells []lane // per (stream, partition): load entries in (group, class) order
	moves []lane // per class: priced moves in (group, stream) order, nil when moves are free

	// Hoisted for group g.
	g          int
	without    []float64 // [s*P+p] load of every group but g
	anchoredOn []bool    // per partition: some class of g is anchored there
	penAll     float64   // the priced moves of a trial on no anchored partition
	penAllOK   bool

	lp  []float64 // scratch
	seg []term    // scratch
}

// term is one addend a·b of an ordered sum.
type term struct{ a, b float64 }

// lane is the addends of one ordered sum that fall in one (stream,
// partition) cell or one class, in group order: group h owns ts[start[h]:start[h+1]], and fold[i] is the
// running sum of ts[:i] from +0.
type lane struct {
	ts    []term
	start []int
	fold  []float64
}

// newLane makes an empty lane over ng groups with room for n addends.
func newLane(ng, n int) lane {
	return lane{start: make([]int, ng+1), ts: make([]term, 0, n), fold: make([]float64, 1, n+1)}
}

// open starts group h's addends: the lane is built group by group, and
// every group from 0 to NumGroups is opened in order.
func (l *lane) open(h int) { l.start[h] = len(l.ts) }

// add appends an addend of the group opened last.
func (l *lane) add(t term) {
	l.ts = append(l.ts, t)
	l.fold = append(l.fold, l.fold[len(l.fold)-1]+t.a*t.b)
}

// set replaces group g's addends and refolds the lane from them on.
func (l *lane) set(g int, ts []term) {
	lo, hi := l.start[g], l.start[g+1]
	if hi == lo && len(ts) == 0 {
		return
	}
	l.ts = slices.Replace(l.ts, lo, hi, ts...)
	for i := g + 1; i < len(l.start); i++ {
		l.start[i] += len(ts) - (hi - lo)
	}
	l.fold = l.fold[:lo+1]
	for _, t := range l.ts[lo:] {
		l.fold = append(l.fold, l.fold[len(l.fold)-1]+t.a*t.b)
	}
}

// before is the fold of the groups before g.
func (l *lane) before(g int) float64 { return l.fold[l.start[g]] }

// after is the addends of the groups after g.
func (l *lane) after(g int) []term { return l.ts[l.start[g+1]:] }

// without is the fold of every group but g.
func (l *lane) without(g int) float64 {
	if l.start[g] == l.start[g+1] {
		return l.fold[len(l.fold)-1]
	}
	x := l.before(g)
	for _, t := range l.after(g) {
		x += t.a * t.b
	}
	return x
}

// newDescentScorer prepares the scorer for an assignment the descent
// owns: cur is read on every hoist and written by move.
func newDescentScorer(in *mip.Instance, anchorOpts mip.Options, cur [][]int) *descentScorer {
	np, ns, ng := in.NumPartitions, in.NumStreams, in.NumGroups
	sc := &descentScorer{in: in, cur: cur, np: np, ng: ng}
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
	sc.au = make([]float64, ng*ns)
	shMax := make([]float64, ns*np)
	unsh := make([]float64, ns*np)
	n := make([]int, ns*np)
	for g := 0; g < ng; g++ {
		e := g * ne
		for ci, c := range in.Classes {
			for _, cs := range c.Streams {
				if sc.card[e] = cs.Card[g]; sc.card[e] != 0 {
					n[cs.Stream*np+cur[ci][g]]++
				}
				e++
			}
		}
	}
	sc.cells = make([]lane, ns*np)
	for k := range sc.cells {
		sc.cells[k] = newLane(ng, n[k])
	}
	sc.terms = make([][]term, ng)
	sc.tfold = make([]float64, ng+1)
	for g := 0; g < ng; g++ {
		// With every class on one partition, each stream's share of g
		// is one (stream, partition) cell, whichever the partition.
		au := sc.au[g*ns : (g+1)*ns]
		clear(shMax[:ns])
		for _, c := range in.Classes {
			for _, cs := range c.Streams {
				sh := cs.Card[g] * cs.SW[g]
				if sh > shMax[cs.Stream] {
					shMax[cs.Stream] = sh
				}
				au[cs.Stream] += cs.Card[g] * (1 - cs.SW[g])
			}
		}
		for s, sh := range shMax[:ns] {
			au[s] = sh + au[s]
		}

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
		for k := range shMax {
			if lat, x := in.LatP[k%np], shMax[k]+unsh[k]; lat != 0 && x != 0 {
				sc.terms[g] = append(sc.terms[g], term{lat, x})
			}
		}

		for k := range sc.cells {
			sc.cells[k].open(g)
		}
		for e, card := range sc.card[g*ne : (g+1)*ne] {
			if card != 0 {
				sc.cells[sc.entStream[e]*np+cur[sc.entClass[e]][g]].add(term{sc.entW[e], card})
			}
		}
	}
	for k := range sc.cells {
		sc.cells[k].open(ng)
	}
	sc.foldTerms(0)

	if anchorOpts.Prefer != nil && anchorOpts.MoveCost != nil {
		sc.prefer = anchorOpts.Prefer
		sc.mw = make([]float64, len(in.Classes))
		sc.moves = make([]lane, len(in.Classes))
		for ci, c := range in.Classes {
			sc.mw[ci] = anchorOpts.MoveCost[ci] * c.Weight
			l := newLane(ng, ng*(sc.clsStart[ci+1]-sc.clsStart[ci]))
			for g := 0; g < ng; g++ {
				l.open(g)
				if sc.priced(ci, g, cur[ci][g]) {
					for _, card := range sc.classCards(ci, g) {
						if card != 0 {
							l.add(term{sc.mw[ci], card})
						}
					}
				}
			}
			l.open(ng)
			sc.moves[ci] = l
		}
		sc.anchoredOn = make([]bool, np)
	}

	sc.lp = make([]float64, ns)
	sc.without = make([]float64, ns*np)
	return sc
}

// foldTerms refolds the traffic of the groups after g.
func (sc *descentScorer) foldTerms(g int) {
	for h := g; h < sc.ng; h++ {
		x := sc.tfold[h]
		for _, t := range sc.terms[h] {
			x += t.a * t.b
		}
		sc.tfold[h+1] = x
	}
}

// priced reports whether class ci's group g on partition p pays to move.
func (sc *descentScorer) priced(ci, g, p int) bool {
	pf := sc.prefer[ci][g]
	return pf >= 0 && p != pf && sc.mw[ci] != 0
}

// classCards is class ci's entries in group g.
func (sc *descentScorer) classCards(ci, g int) []float64 {
	ne := len(sc.entClass)
	return sc.card[g*ne+sc.clsStart[ci] : g*ne+sc.clsStart[ci+1]]
}

// hoist prepares the trials of group g: everything in them that does
// not depend on the partition g moves to.
func (sc *descentScorer) hoist(g int) {
	sc.g = g
	for k := range sc.cells {
		sc.without[k] = sc.cells[k].without(g)
	}
	if sc.prefer == nil {
		return
	}
	clear(sc.anchoredOn)
	for _, row := range sc.prefer {
		if pf := row[g]; pf >= 0 {
			sc.anchoredOn[pf] = true
		}
	}
	sc.penAllOK = false
}

// trial scores the assignment with every class of the hoisted group on
// partition p.
func (sc *descentScorer) trial(p int) float64 {
	in, np, g, ne := sc.in, sc.np, sc.g, len(sc.entClass)
	cost := sc.tfold[g]
	for _, x := range sc.au[g*in.NumStreams : (g+1)*in.NumStreams] {
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
		sc.lp[s] = sc.cells[s*np+p].before(g)
	}
	for e, card := range row {
		if card != 0 {
			sc.lp[sc.entStream[e]] += sc.entW[e] * card
		}
	}
	for s, l := range sc.lp {
		for _, t := range sc.cells[s*np+p].after(g) {
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

	if sc.prefer == nil {
		return cost
	}
	// Off every anchored partition, each class of g pays its move, so
	// all such trials fold the same addends.
	if !sc.anchoredOn[p] && sc.penAllOK {
		return cost + sc.penAll
	}
	pen := sc.moves[0].before(g)
	for ci := range sc.moves {
		if sc.priced(ci, g, p) {
			for _, card := range sc.classCards(ci, g) {
				if card != 0 {
					pen += sc.mw[ci] * card
				}
			}
		}
		for _, t := range sc.moves[ci].after(g) {
			pen += t.a * t.b
		}
		if ci+1 < len(sc.moves) {
			next := &sc.moves[ci+1]
			for _, t := range next.ts[:next.start[g]] {
				pen += t.a * t.b
			}
		}
	}
	if !sc.anchoredOn[p] {
		sc.penAll, sc.penAllOK = pen, true
	}
	return cost + pen
}

// move places every class of the hoisted group on partition p.
func (sc *descentScorer) move(p int) {
	g, np, ne := sc.g, sc.np, len(sc.entClass)
	for _, row := range sc.cur {
		row[g] = p
	}
	ts := sc.terms[g][:0]
	if lat := sc.in.LatP[p]; lat != 0 {
		for _, x := range sc.au[g*sc.in.NumStreams : (g+1)*sc.in.NumStreams] {
			if x != 0 {
				ts = append(ts, term{lat, x})
			}
		}
	}
	sc.terms[g] = ts
	sc.foldTerms(g)

	// g leaves every cell it was in; on partition p it fills one cell
	// per stream with its entries in class order.
	for s := 0; s < sc.in.NumStreams; s++ {
		seg := sc.seg[:0]
		for e, card := range sc.card[g*ne : (g+1)*ne] {
			if card != 0 && sc.entStream[e] == s {
				seg = append(seg, term{sc.entW[e], card})
			}
		}
		for q := 0; q < np; q++ {
			if q == p {
				sc.cells[s*np+q].set(g, seg)
			} else {
				sc.cells[s*np+q].set(g, nil)
			}
		}
		sc.seg = seg
	}
	for ci := range sc.moves {
		seg := sc.seg[:0]
		if sc.priced(ci, g, p) {
			for _, card := range sc.classCards(ci, g) {
				if card != 0 {
					seg = append(seg, term{sc.mw[ci], card})
				}
			}
		}
		sc.moves[ci].set(g, seg)
		sc.seg = seg
	}
}
