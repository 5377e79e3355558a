// Package stats implements SASPAR's statistics collection (Section II):
// per-(query, key-group) cardinalities, the SharedWith sharing
// coefficients (the triangles of Fig. 2a), and a drift signal the
// trigger policy can watch. SharedWith is counted exactly; the random
// forest that the paper's Section IV trains to predict it is measured
// by the figure harness (internal/bench), not used by the control loop.
//
// The collector consumes the engine's routed-tuple samples: each sample
// carries, for one concrete tuple, the key group it falls into under
// every route class of its stream. Counts are scaled back to modelled
// tuples by a constant factor (sampling interval × tuple weight).
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// Collector accumulates statistics for one engine run. It is driven by
// the engine's single-threaded tick loop and performs no locking.
type Collector struct {
	numGroups int
	scale     float64 // modelled tuples represented per sample

	streams []streamStats
	samples int
	now     vtime.Time
}

// streamStats holds one stream's per-group lanes, indexed by route-class
// id (an id outside [0, MaxClasses) fails the index), allocated at first
// use and zeroed in place by Reset. A class is in an epoch iff its bit is set.
type streamStats struct {
	present     uint64                 // classes sampled this epoch
	card        [MaxClasses][]float64  // [class][group]: scaled sample counts
	aligned     [MaxClasses]*pairLanes // [c1][c2][group]: SAME-group co-occurrence, for Eq. 4's SharedWith
	prev        [MaxClasses][]float64  // [class][group]: normalized distributions of the prevPresent classes
	prevPresent uint64
}

type pairLanes [MaxClasses][]float64

// MaxClasses bounds the route-class ids a Collector accepts: the
// engine's per-stream class cap, one bit of a presence word each.
const MaxClasses = 64

// NewCollector builds a collector. scale is the number of modelled
// tuples each sample represents (sampling interval × tuple weight).
func NewCollector(numStreams, numGroups int, scale float64) *Collector {
	if numStreams <= 0 || numGroups <= 0 || scale <= 0 {
		panic(fmt.Sprintf("stats: invalid collector dimensions %d/%d/%v", numStreams, numGroups, scale))
	}
	return &Collector{numGroups: numGroups, scale: scale, streams: make([]streamStats, numStreams)}
}

// lane returns *l, allocating it on first use.
func (c *Collector) lane(l *[]float64) []float64 {
	if *l == nil {
		*l = make([]float64, c.numGroups)
	}
	return *l
}

// cardOf returns a class's card lane, nil unless the class was sampled
// this epoch.
func (ss *streamStats) cardOf(class int) []float64 {
	if ss.present&(1<<uint(class)) == 0 {
		return nil
	}
	return ss.card[class]
}

// Sample implements engine.Sampler.
func (c *Collector) Sample(v engine.SampleVec) {
	ss := &c.streams[v.Stream]
	c.samples++
	c.now = v.Time
	for i, ci := range v.Classes {
		gi := v.Groups[i]
		c.lane(&ss.card[ci])[gi] += c.scale
		ss.present |= 1 << uint(ci)
		for j, cj := range v.Classes {
			if i == j {
				continue
			}
			if gi == v.Groups[j] {
				if ss.aligned[ci] == nil {
					ss.aligned[ci] = new(pairLanes)
				}
				c.lane(&ss.aligned[ci][cj])[gi] += c.scale
			}
		}
	}
}

// Samples reports how many tuples were sampled this epoch.
func (c *Collector) Samples() int { return c.samples }

// Card reports the scaled cardinality of (stream, class, group).
func (c *Collector) Card(stream, class int, g keyspace.GroupID) float64 {
	if cv := c.streams[stream].cardOf(class); cv != nil {
		return cv[g]
	}
	return 0
}

// CardVector returns a copy of the per-group cardinalities of a class.
func (c *Collector) CardVector(stream, class int) []float64 {
	out := make([]float64, c.numGroups)
	copy(out, c.streams[stream].cardOf(class))
	return out
}

// SW reports the SharedWith coefficient of (stream, class, group): the
// largest fraction of the group's tuples that also fall into the same
// group id under some other class — the alignment statistic the MIP
// model's max-sharing term consumes (DESIGN.md §1).
func (c *Collector) SW(stream, class int, g keyspace.GroupID) float64 {
	ss := &c.streams[stream]
	cv := ss.cardOf(class)
	if cv == nil || cv[g] == 0 {
		return 0
	}
	var best float64
	if row := ss.aligned[class]; row != nil {
		for m := ss.present &^ (1 << uint(class)); m != 0; m &= m - 1 {
			if av := row[bits.TrailingZeros64(m)]; av != nil && av[g] > best {
				best = av[g]
			}
		}
	}
	return min(best/cv[g], 1)
}

// SWVector returns the per-group SharedWith coefficients of a class.
func (c *Collector) SWVector(stream, class int) []float64 {
	out := make([]float64, c.numGroups)
	for g := range out {
		out[g] = c.SW(stream, class, keyspace.GroupID(g))
	}
	return out
}

// Classes returns the class ids observed on a stream this epoch, in
// ascending order so downstream consumers stay deterministic.
func (c *Collector) Classes(stream int) []int {
	var out []int
	for m := c.streams[stream].present; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// Drift reports, per stream, the maximum L1 distance between any
// class's current normalized group distribution and its previous-epoch
// distribution (0 = stationary, 2 = disjoint). The trigger policy uses
// it to decide whether re-optimization is worthwhile.
func (c *Collector) Drift(stream int) float64 {
	var worst float64
	for _, d := range c.classDrift(stream) {
		var l1 float64
		for _, x := range d {
			l1 += x
		}
		worst = max(worst, l1)
	}
	return worst
}

// classDrift returns, per class sampled in this epoch and the previous
// one, the absolute change of each group's normalized share.
func (c *Collector) classDrift(stream int) [][]float64 {
	ss := &c.streams[stream]
	var out [][]float64
	for m := ss.present & ss.prevPresent; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		d := normalize(make([]float64, c.numGroups), ss.card[ci])
		for g, prev := range ss.prev[ci] {
			d[g] = math.Abs(d[g] - prev)
		}
		out = append(out, d)
	}
	return out
}

// Reset closes the current statistics epoch: distributions are archived
// for drift detection and counters cleared in place.
func (c *Collector) Reset(now vtime.Time) {
	for si := range c.streams {
		ss := &c.streams[si]
		for m := ss.present; m != 0; m &= m - 1 {
			ci := bits.TrailingZeros64(m)
			normalize(c.lane(&ss.prev[ci]), ss.card[ci])
			clear(ss.card[ci])
		}
		ss.prevPresent, ss.present = ss.present, 0
		for _, row := range ss.aligned {
			if row != nil {
				for i := range row {
					clear(row[i])
				}
			}
		}
	}
	c.samples = 0
	c.now = now
}

// normalize writes v scaled to unit sum into dst (zeros when v sums to
// zero) and returns dst.
func normalize(dst, v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	clear(dst)
	for i, x := range v {
		if sum != 0 {
			dst[i] = x / sum
		}
	}
	return dst
}
