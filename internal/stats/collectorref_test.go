package stats

import (
	"math"
	"sort"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// refCollector is the statistics collector as it was written before the
// dense class-indexed lanes of stats.go: Go maps keyed by class id and
// class pair, and a fresh set of maps every epoch. It is kept only
// here, as the differential reference FuzzCollector drives beside
// Collector.
type refCollector struct {
	numStreams int
	numGroups  int
	scale      float64 // modelled tuples represented per sample

	streams []*refStreamStats
	samples int
	now     vtime.Time

	// prev holds the previous epoch's normalized per-class group
	// distributions for drift detection.
	prev []map[int][]float64
}

type refStreamStats struct {
	// card[class][group]: scaled sample counts.
	card map[int][]float64
	// aligned[pair(c1,c2)][group]: co-occurrence of the SAME group id
	// under both classes — the statistic Eq. 4's SharedWith needs.
	aligned map[uint64][]float64
}

func newRefStreamStats() *refStreamStats {
	return &refStreamStats{
		card:    map[int][]float64{},
		aligned: map[uint64][]float64{},
	}
}

func newRefCollector(numStreams, numGroups int, scale float64) *refCollector {
	c := &refCollector{
		numStreams: numStreams,
		numGroups:  numGroups,
		scale:      scale,
		streams:    make([]*refStreamStats, numStreams),
		prev:       make([]map[int][]float64, numStreams),
	}
	for i := range c.streams {
		c.streams[i] = newRefStreamStats()
		c.prev[i] = map[int][]float64{}
	}
	return c
}

func refPairKey(c1, c2 int) uint64 { return uint64(c1)<<32 | uint64(uint32(c2)) }

func (c *refCollector) Sample(v engine.SampleVec) {
	ss := c.streams[v.Stream]
	c.samples++
	c.now = v.Time
	k := len(v.Classes)
	for i := 0; i < k; i++ {
		ci, gi := v.Classes[i], v.Groups[i]
		cv := ss.card[ci]
		if cv == nil {
			cv = make([]float64, c.numGroups)
			ss.card[ci] = cv
		}
		cv[gi] += c.scale
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			cj, gj := v.Classes[j], v.Groups[j]
			if gi == gj {
				av := ss.aligned[refPairKey(ci, cj)]
				if av == nil {
					av = make([]float64, c.numGroups)
					ss.aligned[refPairKey(ci, cj)] = av
				}
				av[gi] += c.scale
			}
		}
	}
}

// Samples reports how many tuples were sampled this epoch.
func (c *refCollector) Samples() int { return c.samples }

// Card reports the scaled cardinality of (stream, class, group).
func (c *refCollector) Card(stream, class int, g keyspace.GroupID) float64 {
	if cv := c.streams[stream].card[class]; cv != nil {
		return cv[g]
	}
	return 0
}

// CardVector returns a copy of the per-group cardinalities of a class.
func (c *refCollector) CardVector(stream, class int) []float64 {
	out := make([]float64, c.numGroups)
	if cv := c.streams[stream].card[class]; cv != nil {
		copy(out, cv)
	}
	return out
}

// SW reports the SharedWith coefficient of (stream, class, group): the
// largest fraction of the group's tuples that also fall into the same
// group id under some other class — the alignment statistic the MIP
// model's max-sharing term consumes (DESIGN.md §1).
func (c *refCollector) SW(stream, class int, g keyspace.GroupID) float64 {
	ss := c.streams[stream]
	cv := ss.card[class]
	if cv == nil || cv[g] == 0 {
		return 0
	}
	var best float64
	for other := range ss.card {
		if other == class {
			continue
		}
		if av := ss.aligned[refPairKey(class, other)]; av != nil && av[g] > best {
			best = av[g]
		}
	}
	sw := best / cv[g]
	if sw > 1 {
		sw = 1
	}
	return sw
}

// SWVector returns the per-group SharedWith coefficients of a class.
func (c *refCollector) SWVector(stream, class int) []float64 {
	out := make([]float64, c.numGroups)
	for g := range out {
		out[g] = c.SW(stream, class, keyspace.GroupID(g))
	}
	return out
}

// Classes returns the class ids observed on a stream this epoch, in
// ascending order so downstream consumers stay deterministic.
func (c *refCollector) Classes(stream int) []int {
	var out []int
	for ci := range c.streams[stream].card {
		out = append(out, ci)
	}
	sort.Ints(out)
	return out
}

// Drift reports, per stream, the maximum L1 distance between any
// class's current normalized group distribution and its previous-epoch
// distribution (0 = stationary, 2 = disjoint). The trigger policy uses
// it to decide whether re-optimization is worthwhile.
func (c *refCollector) Drift(stream int) float64 {
	ss := c.streams[stream]
	var worst float64
	for ci, cv := range ss.card {
		prev := c.prev[stream][ci]
		if prev == nil {
			continue
		}
		cur := refNormalize(cv)
		var l1 float64
		for g := range cur {
			l1 += math.Abs(cur[g] - prev[g])
		}
		if l1 > worst {
			worst = l1
		}
	}
	return worst
}

// Reset closes the current statistics epoch: distributions are archived
// for drift detection and counters cleared.
func (c *refCollector) Reset(now vtime.Time) {
	for si, ss := range c.streams {
		archived := map[int][]float64{}
		for ci, cv := range ss.card {
			archived[ci] = refNormalize(cv)
		}
		c.prev[si] = archived
		c.streams[si] = newRefStreamStats()
	}
	c.samples = 0
	c.now = now
}

func refNormalize(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	out := make([]float64, len(v))
	if sum == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / sum
	}
	return out
}
