// Package stats implements SASPAR's statistics collection (Section II
// and the ML part of Section IV): per-(query, key-group) cardinalities,
// the SharedWith sharing coefficients (the triangles of Fig. 2a), the
// full cross-group overlap matrix used to train the random forest, and
// a drift signal the trigger policy can watch.
//
// The collector consumes the engine's routed-tuple samples: each sample
// carries, for one concrete tuple, the key group it falls into under
// every route class of its stream. Counts are scaled back to modelled
// tuples by a constant factor (sampling interval × tuple weight). The
// overlap matrix costs k² writes per sample for k classes and only the
// random forest reads it, so it is built only when armed (ArmOverlap).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/ml"
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
	cross       map[uint64]float64 // [pack(c1,g1,c2,g2)]: overlap counts; nil unless armed
}

type pairLanes [MaxClasses][]float64

// MaxClasses bounds the route-class ids a Collector accepts: the
// engine's per-stream class cap, one bit of a presence word each.
const MaxClasses = 64

// MaxGroups is the largest group count a Collector accepts: the overlap
// matrix packs group ids into 16-bit crossKey lanes, and a wider id
// would silently collide with another (class, group) pair.
const MaxGroups = 1 << 16

// NewCollector builds a collector. scale is the number of modelled
// tuples each sample represents (sampling interval × tuple weight).
func NewCollector(numStreams, numGroups int, scale float64) *Collector {
	if numStreams <= 0 || numGroups <= 0 || scale <= 0 {
		panic(fmt.Sprintf("stats: invalid collector dimensions %d/%d/%v", numStreams, numGroups, scale))
	}
	if numGroups > MaxGroups {
		panic(fmt.Sprintf("stats: %d groups exceed the %d-entry crossKey lane", numGroups, MaxGroups))
	}
	return &Collector{numGroups: numGroups, scale: scale, streams: make([]streamStats, numStreams)}
}

// ArmOverlap makes the collector build the cross-group overlap matrix
// that Overlap and TrainingData read. Arm it at an epoch boundary, so
// the matrix covers the whole epoch.
func (c *Collector) ArmOverlap() {
	if c.samples != 0 {
		panic("stats: overlap matrix armed mid-epoch")
	}
	for i := range c.streams {
		c.streams[i].cross = map[uint64]float64{}
	}
}

// crossOf returns a stream's stats to a reader of the overlap matrix,
// and panics if it was never armed: there is no matrix, not an empty one.
func (c *Collector) crossOf(stream int) *streamStats {
	if ss := &c.streams[stream]; ss.cross != nil {
		return ss
	}
	panic("stats: overlap matrix read but never armed (ArmOverlap)")
}

// crossKey packs two (class, group) ids into four 16-bit lanes. Each
// lane is masked: an id wider than its lane (or a sign-extended
// negative) must not smear into its neighbours — NewCollector bounds
// numGroups so in-range ids round-trip exactly.
func crossKey(c1 int, g1 keyspace.GroupID, c2 int, g2 keyspace.GroupID) uint64 {
	return uint64(uint16(c1))<<48 | uint64(uint16(g1))<<32 | uint64(uint16(c2))<<16 | uint64(uint16(g2))
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
			gj := v.Groups[j]
			if gi == gj {
				if ss.aligned[ci] == nil {
					ss.aligned[ci] = new(pairLanes)
				}
				c.lane(&ss.aligned[ci][cj])[gi] += c.scale
			}
			if ss.cross != nil {
				ss.cross[crossKey(ci, gi, cj, gj)] += c.scale
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

// Overlap reports the fraction of (class1, g1)'s tuples that fall into
// (class2, g2) — the full triangle statistic of Fig. 2a. The collector
// must be armed.
func (c *Collector) Overlap(stream, class1 int, g1 keyspace.GroupID, class2 int, g2 keyspace.GroupID) float64 {
	ss := c.crossOf(stream)
	cv := ss.cardOf(class1)
	if cv == nil || cv[g1] == 0 {
		return 0
	}
	return ss.cross[crossKey(class1, g1, class2, g2)] / cv[g1]
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

// TrainingData converts this epoch's overlap observations into the
// paper's random-forest dataset. The six model parameters of Section IV
// map to feature columns (source class, source group, destination
// class, destination group, timestamp) plus the label (shared-tuple
// percentage); a derived same-group indicator is appended so trees can
// express the alignment relation directly even under feature
// subsampling. The collector must be armed.
func (c *Collector) TrainingData(stream int) *ml.Dataset {
	ss := c.crossOf(stream)
	d := &ml.Dataset{}
	ts := c.now.Seconds()
	// Row order must be deterministic: forest training bootstraps by row
	// index, so map-order rows would make every trained model — and
	// every figure derived from one — differ run to run.
	keys := make([]uint64, 0, len(ss.cross))
	for key := range ss.cross {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		c1, g1 := int(key>>48), keyspace.GroupID(key>>32&0xFFFF)
		c2, g2 := int(key>>16&0xFFFF), keyspace.GroupID(key&0xFFFF)
		cv := ss.cardOf(c1)
		if cv == nil || cv[g1] == 0 {
			continue
		}
		d.X = append(d.X, featureRow(c1, g1, c2, g2, ts))
		d.Y = append(d.Y, ss.cross[key]/cv[g1])
	}
	// Explicit zero rows for same-group pairs that never co-occurred:
	// without them the forest would extrapolate sharing into group
	// alignments that do not exist.
	classes := c.Classes(stream)
	for _, c1 := range classes {
		cv := ss.card[c1]
		for _, c2 := range classes {
			if c1 == c2 {
				continue
			}
			for g, n := range cv {
				gid := keyspace.GroupID(g)
				if _, seen := ss.cross[crossKey(c1, gid, c2, gid)]; n == 0 || seen {
					continue
				}
				d.X = append(d.X, featureRow(c1, gid, c2, gid, ts))
				d.Y = append(d.Y, 0)
			}
		}
	}
	return d
}

// PredictedSW computes a class's per-group SharedWith coefficients from
// a trained forest instead of the exact aligned counts (the paper's ML
// path for large query counts). otherClasses are the candidate sharing
// partners.
func (c *Collector) PredictedSW(f *ml.Forest, stream, class int, otherClasses []int) []float64 {
	out := make([]float64, c.numGroups)
	ts := c.now.Seconds()
	for g := range out {
		var best float64
		for _, other := range otherClasses {
			if other == class {
				continue
			}
			if p := f.Predict(featureRow(class, keyspace.GroupID(g), other, keyspace.GroupID(g), ts)); p > best {
				best = p
			}
		}
		out[g] = max(min(best, 1), 0)
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

// GroupDrift reports, per key group, the largest absolute change of
// the group's normalized share under any class of the stream since the
// previous epoch. It is the per-group decomposition of Drift: the
// trigger policy uses the stream-level L1 to decide WHETHER to
// re-optimize, and this vector to decide WHICH groups are worth
// re-placing (the greedy tier's incremental refine pass). Classes with
// no previous-epoch archive contribute nothing, mirroring Drift.
func (c *Collector) GroupDrift(stream int) []float64 {
	out := make([]float64, c.numGroups)
	for _, d := range c.classDrift(stream) {
		for g, x := range d {
			out[g] = max(out[g], x)
		}
	}
	return out
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
		clear(ss.cross)
	}
	c.samples = 0
	c.now = now
}

// featureRow builds the forest feature vector for one (source class,
// source group) → (destination class, destination group) pair.
func featureRow(c1 int, g1 keyspace.GroupID, c2 int, g2 keyspace.GroupID, ts float64) []float64 {
	same := 0.0
	if g1 == g2 {
		same = 1
	}
	return []float64{float64(c1), float64(g1), float64(c2), float64(g2), ts, same}
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
