package optimizer

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"saspar/internal/mip"
)

// coordinatedDescentRef is coordinatedDescent as it was before the
// descentScorer: every trial rescores the whole instance with
// mip.Evaluate + mip.MovementPenalty. FuzzDescentScorer holds the
// descent to it bit for bit.
func coordinatedDescentRef(in *mip.Instance, anchorOpts mip.Options, assign [][]int, budget time.Duration) ([][]int, float64) {
	cur := make([][]int, len(assign))
	for i := range assign {
		cur[i] = append([]int(nil), assign[i]...)
	}
	score := func(a [][]int) float64 {
		return mip.Evaluate(in, a) + mip.MovementPenalty(in, anchorOpts, a)
	}
	best := score(cur)

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

	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, g := range order {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return cur, best
			}
			orig := make([]int, len(cur))
			for ci := range cur {
				orig[ci] = cur[ci][g]
			}
			bestP, bestObj := -1, best
			for p := 0; p < in.NumPartitions; p++ {
				for ci := range cur {
					cur[ci][g] = p
				}
				if obj := score(cur); obj < bestObj {
					bestObj, bestP = obj, p
				}
			}
			if bestP >= 0 {
				for ci := range cur {
					cur[ci][g] = bestP
				}
				best = bestObj
				improved = true
			} else {
				for ci := range cur {
					cur[ci][g] = orig[ci]
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur, best
}

// descentFuzzCase decodes a descent input from fuzz bytes: 1–4 streams,
// 1–6 classes of weight 1–3 reading one or two streams, 1–12 key
// groups, 1–7 partitions with uneven (sometimes zero) LatP, zero cards,
// sharing coefficients of exactly 0 and 1 among fractional ones, and a
// starting assignment whose classes disagree on groups. Flag bits add
// an anchor with -1 entries and a movement cost (some classes' zero).
// The last return is a byte source for the walk.
func descentFuzzCase(data []byte) (*mip.Instance, mip.Options, [][]int, func() int) {
	if len(data) < 6 {
		return nil, mip.Options{}, nil, nil
	}
	ns := 1 + int(data[0])%4
	nc := 1 + int(data[1])%6
	ng := 1 + int(data[2])%12
	np := 1 + int(data[3])%7
	flags := data[4]
	next := 5
	byteAt := func() int {
		if next >= len(data) {
			next = 5
		}
		b := data[next]
		next++
		return int(b)
	}
	in := &mip.Instance{
		NumPartitions: np, NumGroups: ng, NumStreams: ns,
		LatP:    make([]float64, np),
		LatProc: 0.05 + float64(byteAt())/37,
	}
	for p := range in.LatP {
		in.LatP[p] = float64(byteAt()) / 29
	}
	for c := 0; c < nc; c++ {
		cl := mip.Class{Weight: float64(1 + byteAt()%3)}
		first := byteAt() % ns
		streams := []int{first}
		if ns > 1 && byteAt()%2 == 1 {
			streams = append(streams, (first+1+byteAt()%(ns-1))%ns)
		}
		for _, s := range streams {
			cs := mip.ClassStream{Stream: s, Card: make([]float64, ng), SW: make([]float64, ng)}
			for g := 0; g < ng; g++ {
				if b := byteAt(); b%5 != 0 {
					cs.Card[g] = float64(b) / 3
				}
				switch b := byteAt(); b % 4 {
				case 0:
				case 1:
					cs.SW[g] = 1
				default:
					cs.SW[g] = float64(b) / 255
				}
			}
			cl.Streams = append(cl.Streams, cs)
		}
		in.Classes = append(in.Classes, cl)
	}
	start := make([][]int, nc)
	for c := range start {
		start[c] = make([]int, ng)
		for g := range start[c] {
			start[c][g] = byteAt() % np
		}
	}
	var opts mip.Options
	if flags&1 != 0 {
		opts.Prefer = make([][]int, nc)
		for c := range opts.Prefer {
			opts.Prefer[c] = make([]int, ng)
			for g := range opts.Prefer[c] {
				opts.Prefer[c][g] = byteAt()%(np+1) - 1
			}
		}
		if flags&2 != 0 {
			opts.MoveCost = make([]float64, nc)
			for c := range opts.MoveCost {
				opts.MoveCost[c] = float64(byteAt()%50) / 70
			}
		}
	}
	return in, opts, start, byteAt
}

// FuzzDescentScorer holds the incremental descent to full rescoring bit
// for bit: on a walk that hoists groups in fuzzed order and moves some
// of them, every trial score equals mip.Evaluate + mip.MovementPenalty
// of the trial assignment, and the descent's plan and objective at no
// deadline equal those of coordinatedDescentRef.
func FuzzDescentScorer(f *testing.F) {
	f.Add([]byte{1, 3, 7, 5, 0, 10, 200, 30, 90, 4, 170, 33, 77})
	f.Add([]byte{3, 5, 11, 7, 3, 250, 3, 99, 128, 7, 64, 33, 1, 2, 5, 8, 13, 21})
	f.Add([]byte{2, 4, 9, 3, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 1, 9})
	f.Add([]byte{1, 2, 5, 6, 3, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255})
	f.Add([]byte{3, 5, 11, 4, 7, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, opts, start, byteAt := descentFuzzCase(data)
		if in == nil {
			return
		}
		cur := make([][]int, len(start))
		for c := range start {
			cur[c] = append([]int(nil), start[c]...)
		}
		trialAssign := make([][]int, len(cur))
		sc := newDescentScorer(in, opts, cur)
		for step := 0; step < 2*in.NumGroups; step++ {
			g := byteAt() % in.NumGroups
			sc.hoist(g)
			for p := 0; p < in.NumPartitions; p++ {
				for c := range cur {
					trialAssign[c] = append(trialAssign[c][:0], cur[c]...)
					trialAssign[c][g] = p
				}
				got := sc.trial(p)
				want := mip.Evaluate(in, trialAssign) + mip.MovementPenalty(in, opts, trialAssign)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d, group %d on %d: scorer %v (%#x), rescored %v (%#x)",
						step, g, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if b := byteAt(); b%2 == 0 {
				sc.move(b / 2 % in.NumPartitions)
			}
		}

		gotAssign, gotObj := coordinatedDescent(in, opts, start, 0)
		wantAssign, wantObj := coordinatedDescentRef(in, opts, start, 0)
		if math.Float64bits(gotObj) != math.Float64bits(wantObj) {
			t.Fatalf("descent objective %v, reference %v", gotObj, wantObj)
		}
		if fmt.Sprint(gotAssign) != fmt.Sprint(wantAssign) {
			t.Fatalf("descent plan %v, reference %v", gotAssign, wantAssign)
		}
	})
}

// BenchmarkCoordinatedDescent times the closing descent of
// TestCascadePinned's 14-class request (ring anchor, movement cost 0.01,
// no deadline), started from the greedy seed and from the anchor.
func BenchmarkCoordinatedDescent(b *testing.B) {
	req := cascadeRequest(37, 14)
	moveCost := make([]float64, len(req.Queries))
	for i := range moveCost {
		moveCost[i] = 0.01
	}
	opt := Options{DeterministicBudget: true, Anchor: ringAnchor(req), MoveCost: moveCost}.withDefaults()
	c := components(req)[0]
	in := buildInstance(req, c)
	anchorOpts := buildAnchor(req, c, opt)
	for _, bc := range []struct {
		name  string
		start [][]int
	}{
		{"greedy", greedyAssign(in, anchorOpts)},
		{"anchor", anchorOpts.Prefer},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coordinatedDescent(in, anchorOpts, bc.start, 0)
			}
		})
	}
}
