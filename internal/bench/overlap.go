package bench

import (
	"fmt"
	"slices"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/ml"
	"saspar/internal/stats"
	"saspar/internal/vtime"
)

// overlapRecorder is the sampler of the random-forest measurements (the
// paper's Section IV model, measured by MLAccuracy and AblationMLStats):
// it forwards every sample to a stats.Collector and records beside it
// the full cross-group overlap matrix the forest trains on. The control
// loop counts SharedWith exactly and reads none of this; the matrix
// costs k² map writes per sample for k classes.
type overlapRecorder struct {
	col       *stats.Collector
	numGroups int
	scale     float64
	cross     []map[uint64]float64 // per stream: [crossKey(c1,g1,c2,g2)]: scaled co-occurrence
	now       vtime.Time           // the last sample's time: the forest's timestamp feature
}

// maxOverlapGroups is the largest group count a recorder accepts:
// crossKey packs group ids into 16-bit lanes, and a wider id would
// silently collide with another (class, group) pair.
const maxOverlapGroups = 1 << 16

// newOverlapRecorder builds a recorder and its collector; scale is the
// number of modelled tuples each sample represents.
func newOverlapRecorder(numStreams, numGroups int, scale float64) *overlapRecorder {
	if numGroups > maxOverlapGroups {
		panic(fmt.Sprintf("bench: %d groups exceed the %d-entry crossKey lane", numGroups, maxOverlapGroups))
	}
	r := &overlapRecorder{
		col:       stats.NewCollector(numStreams, numGroups, scale),
		numGroups: numGroups,
		scale:     scale,
		cross:     make([]map[uint64]float64, numStreams),
	}
	for i := range r.cross {
		r.cross[i] = map[uint64]float64{}
	}
	return r
}

// crossKey packs two (class, group) ids into four 16-bit lanes. Each
// lane is masked: an id wider than its lane (or a sign-extended
// negative) must not smear into its neighbours — newOverlapRecorder
// bounds numGroups so in-range ids round-trip exactly.
func crossKey(c1 int, g1 keyspace.GroupID, c2 int, g2 keyspace.GroupID) uint64 {
	return uint64(uint16(c1))<<48 | uint64(uint16(g1))<<32 | uint64(uint16(c2))<<16 | uint64(uint16(g2))
}

// Sample implements engine.Sampler.
func (r *overlapRecorder) Sample(v engine.SampleVec) {
	r.col.Sample(v)
	r.now = v.Time
	cross := r.cross[v.Stream]
	for i, ci := range v.Classes {
		for j, cj := range v.Classes {
			if i != j {
				cross[crossKey(ci, v.Groups[i], cj, v.Groups[j])] += r.scale
			}
		}
	}
}

// TrainingData converts the recorded overlap into the paper's
// random-forest dataset. The six model parameters of Section IV map to
// feature columns (source class, source group, destination class,
// destination group, timestamp) plus the label (shared-tuple
// percentage); a derived same-group indicator is appended so trees can
// express the alignment relation directly even under feature
// subsampling.
func (r *overlapRecorder) TrainingData(stream int) *ml.Dataset {
	cross := r.cross[stream]
	d := &ml.Dataset{}
	ts := r.now.Seconds()
	// Row order must be deterministic: forest training bootstraps by row
	// index, so map-order rows would make every trained model — and
	// every figure derived from one — differ run to run.
	keys := make([]uint64, 0, len(cross))
	for key := range cross {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		c1, g1 := int(key>>48), keyspace.GroupID(key>>32&0xFFFF)
		c2, g2 := int(key>>16&0xFFFF), keyspace.GroupID(key&0xFFFF)
		n := r.col.Card(stream, c1, g1)
		if n == 0 {
			continue
		}
		d.X = append(d.X, featureRow(c1, g1, c2, g2, ts))
		d.Y = append(d.Y, cross[key]/n)
	}
	// Explicit zero rows for same-group pairs that never co-occurred:
	// without them the forest would extrapolate sharing into group
	// alignments that do not exist.
	classes := r.col.Classes(stream)
	for _, c1 := range classes {
		cv := r.col.CardVector(stream, c1)
		for _, c2 := range classes {
			if c1 == c2 {
				continue
			}
			for g, n := range cv {
				gid := keyspace.GroupID(g)
				if _, seen := cross[crossKey(c1, gid, c2, gid)]; n == 0 || seen {
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
func (r *overlapRecorder) PredictedSW(f *ml.Forest, class int, otherClasses []int) []float64 {
	out := make([]float64, r.numGroups)
	ts := r.now.Seconds()
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
		out[g] = min(best, 1)
	}
	return out
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
