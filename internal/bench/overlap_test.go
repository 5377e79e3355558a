package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/ml"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// refOverlap is the overlap matrix as the statistics collector kept it
// before the matrix moved to overlapRecorder: Go maps keyed by class id
// and packed (class, group) pairs, with its own cardinality counts. It
// is kept only here, as the differential reference FuzzOverlapRecorder
// drives beside overlapRecorder.
type refOverlap struct {
	numGroups int
	scale     float64
	now       vtime.Time

	// card[stream][class][group]: scaled sample counts.
	card []map[int][]float64
	// cross[stream][pack(c1,g1,c2,g2)]: full overlap counts.
	cross []map[uint64]float64
}

func newRefOverlap(numStreams, numGroups int, scale float64) *refOverlap {
	r := &refOverlap{numGroups: numGroups, scale: scale}
	for i := 0; i < numStreams; i++ {
		r.card = append(r.card, map[int][]float64{})
		r.cross = append(r.cross, map[uint64]float64{})
	}
	return r
}

func (r *refOverlap) Sample(v engine.SampleVec) {
	card, cross := r.card[v.Stream], r.cross[v.Stream]
	r.now = v.Time
	k := len(v.Classes)
	for i := 0; i < k; i++ {
		ci, gi := v.Classes[i], v.Groups[i]
		cv := card[ci]
		if cv == nil {
			cv = make([]float64, r.numGroups)
			card[ci] = cv
		}
		cv[gi] += r.scale
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			cross[crossKey(ci, gi, v.Classes[j], v.Groups[j])] += r.scale
		}
	}
}

// Overlap reports the fraction of (class1, g1)'s tuples that fall into
// (class2, g2) — the full triangle statistic of Fig. 2a.
func (r *refOverlap) Overlap(stream, class1 int, g1 keyspace.GroupID, class2 int, g2 keyspace.GroupID) float64 {
	cv := r.card[stream][class1]
	if cv == nil || cv[g1] == 0 {
		return 0
	}
	return r.cross[stream][crossKey(class1, g1, class2, g2)] / cv[g1]
}

// TrainingData converts the overlap observations into the paper's
// random-forest dataset.
func (r *refOverlap) TrainingData(stream int) *ml.Dataset {
	card, cross := r.card[stream], r.cross[stream]
	d := &ml.Dataset{}
	ts := r.now.Seconds()
	keys := make([]uint64, 0, len(cross))
	for key := range cross {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		cnt := cross[key]
		c1 := int(key >> 48)
		g1 := keyspace.GroupID(key >> 32 & 0xFFFF)
		c2 := int(key >> 16 & 0xFFFF)
		g2 := keyspace.GroupID(key & 0xFFFF)
		cv := card[c1]
		if cv == nil || cv[g1] == 0 {
			continue
		}
		d.X = append(d.X, featureRow(c1, g1, c2, g2, ts))
		d.Y = append(d.Y, cnt/cv[g1])
	}
	classes := make([]int, 0, len(card))
	for c1 := range card {
		classes = append(classes, c1)
	}
	sort.Ints(classes)
	for _, c1 := range classes {
		cv := card[c1]
		for _, c2 := range classes {
			if c1 == c2 {
				continue
			}
			for g := 0; g < r.numGroups; g++ {
				if cv[g] == 0 {
					continue
				}
				if _, seen := cross[crossKey(c1, keyspace.GroupID(g), c2, keyspace.GroupID(g))]; seen {
					continue
				}
				d.X = append(d.X, featureRow(c1, keyspace.GroupID(g), c2, keyspace.GroupID(g), ts))
				d.Y = append(d.Y, 0)
			}
		}
	}
	return d
}

// PredictedSW computes a class's per-group SharedWith coefficients from
// a trained forest.
func (r *refOverlap) PredictedSW(f *ml.Forest, class int, otherClasses []int) []float64 {
	out := make([]float64, r.numGroups)
	ts := r.now.Seconds()
	for g := range out {
		var best float64
		for _, other := range otherClasses {
			if other == class {
				continue
			}
			p := f.Predict(featureRow(class, keyspace.GroupID(g), other, keyspace.GroupID(g), ts))
			if p > best {
				best = p
			}
		}
		if best > 1 {
			best = 1
		}
		if best < 0 {
			best = 0
		}
		out[g] = best
	}
	return out
}

// overlap reads the recorder's matrix the way refOverlap.Overlap does.
func (r *overlapRecorder) overlap(stream, class1 int, g1 keyspace.GroupID, class2 int, g2 keyspace.GroupID) float64 {
	n := r.col.Card(stream, class1, g1)
	if n == 0 {
		return 0
	}
	return r.cross[stream][crossKey(class1, g1, class2, g2)] / n
}

func overlapVec(stream int, t vtime.Time, pairs ...int) engine.SampleVec {
	v := engine.SampleVec{Stream: engine.StreamID(stream), Time: t}
	for i := 0; i < len(pairs); i += 2 {
		v.Classes = append(v.Classes, pairs[i])
		v.Groups = append(v.Groups, keyspace.GroupID(pairs[i+1]))
	}
	return v
}

func TestOverlapMatrix(t *testing.T) {
	r := newOverlapRecorder(1, 8, 1)
	r.Sample(overlapVec(0, 0, 0, 1, 1, 1))
	r.Sample(overlapVec(0, 0, 0, 1, 1, 2))
	if got := r.overlap(0, 0, 1, 1, 1); got != 0.5 {
		t.Fatalf("Overlap(c0g1->c1g1) = %v, want 0.5", got)
	}
	if got := r.overlap(0, 0, 1, 1, 2); got != 0.5 {
		t.Fatalf("Overlap(c0g1->c1g2) = %v, want 0.5", got)
	}
	if got := r.overlap(0, 0, 1, 1, 5); got != 0 {
		t.Fatalf("Overlap(c0g1->c1g5) = %v, want 0", got)
	}
}

func TestTrainingDataAndPrediction(t *testing.T) {
	// Build a stable overlap pattern, train the forest, and check the
	// predicted SW tracks the exact SW.
	r := newOverlapRecorder(1, 8, 1)
	for i := 0; i < 400; i++ {
		g := i % 8
		// Low groups fully align between the classes, high groups never
		// do — a threshold-shaped sharing pattern a CART can represent.
		g2 := g
		if g >= 4 {
			g2 = (g + 1) % 8
		}
		r.Sample(overlapVec(0, vtime.Time(i)*vtime.Time(vtime.Second), 0, g, 1, g2))
	}
	d := r.TrainingData(0)
	if len(d.X) == 0 {
		t.Fatal("no training rows")
	}
	f, err := ml.TrainForest(d, ml.ForestConfig{
		Trees: 50,
		Tree:  ml.TreeConfig{FeatureSubset: 6, MinLeaf: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := r.PredictedSW(f, 0, []int{1})
	for g := 0; g < 8; g++ {
		exact := r.col.SW(0, 0, keyspace.GroupID(g))
		if math.Abs(pred[g]-exact) > 0.3 {
			t.Fatalf("group %d: predicted SW %v far from exact %v", g, pred[g], exact)
		}
	}
}

func TestCrossKeyLaneIsolation(t *testing.T) {
	// Regression: crossKey packed ids into 16-bit lanes without masking,
	// so a group id one past the lane smeared into the neighbouring
	// class lane and (c1=0, g1=65536) collided with (c1=1, g1=0),
	// corrupting the ML overlap matrix.
	overflow := crossKey(0, keyspace.GroupID(maxOverlapGroups), 0, 0)
	smeared := crossKey(1, 0, 0, 0)
	if overflow == smeared {
		t.Fatalf("group id %d smeared into the class lane: key %#x", maxOverlapGroups, overflow)
	}
	// A negative id must stay confined to its own lane too, not
	// sign-extend across all four.
	neg := crossKey(0, -1, 0, 0)
	if neg>>48 != 0 || uint16(neg>>16) != 0 || uint16(neg) != 0 {
		t.Fatalf("negative group id leaked out of its lane: key %#x", neg)
	}
	// In-range ids round-trip exactly through the TrainingData unpacking.
	key := crossKey(3, 41, 7, 65535)
	c1, g1 := int(key>>48), keyspace.GroupID(key>>32&0xFFFF)
	c2, g2 := int(key>>16&0xFFFF), keyspace.GroupID(key&0xFFFF)
	if c1 != 3 || g1 != 41 || c2 != 7 || g2 != 65535 {
		t.Fatalf("round-trip gave (%d,%d,%d,%d), want (3,41,7,65535)", c1, g1, c2, g2)
	}
	// Distinct in-range tuples must map to distinct keys.
	if crossKey(1, 2, 3, 4) == crossKey(1, 2, 3, 5) || crossKey(1, 2, 3, 4) == crossKey(2, 1, 3, 4) {
		t.Fatal("distinct tuples collided")
	}
}

func TestNewOverlapRecorderRejectsOversizedGroupSpace(t *testing.T) {
	// Regression: group counts beyond the 16-bit crossKey lane used to be
	// accepted and collide silently; now they are refused up front.
	defer func() {
		if recover() == nil {
			t.Fatalf("newOverlapRecorder accepted %d groups (> %d-entry lane)", maxOverlapGroups+1, maxOverlapGroups)
		}
	}()
	newOverlapRecorder(1, maxOverlapGroups+1, 1)
}

// TestOverlapRecorderCollectsFromEngine attaches the recorder to a live
// engine with three distinct-key route classes on one stream (column
// 0, column 1 — equal to column 0, so fully aligned — and both): every
// sample carries three (class, group) pairs, so the matrix yields
// training rows a forest trains on.
func TestOverlapRecorderCollectsFromEngine(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Nodes = 4
	cfg.NumPartitions = 8
	cfg.NumGroups = 16
	cfg.SourceTasks = 4
	cfg.Tick = 100 * vtime.Millisecond
	stream := engine.StreamDef{
		Name: "purchases", NumCols: 3, BytesPerTuple: 100,
		NewSource: func(task int) engine.Source {
			i := int64(task) * 7919
			return workload.RowAdapter(engine.GeneratorFunc(func(t *engine.Tuple, ts vtime.Time) {
				i++
				// ~70% of tuples hit 4 hot keys; the rest spread wide.
				if i%10 < 7 {
					t.Cols[0] = i % 4
				} else {
					t.Cols[0] = 4 + i%60
				}
				t.Cols[1] = t.Cols[0]
				t.Cols[2] = 1
			}))
		},
	}
	var qs []engine.QuerySpec
	for _, key := range []engine.KeySpec{{0}, {1}, {0, 1}} {
		qs = append(qs, engine.QuerySpec{
			ID: "q", Kind: engine.OpAggregate,
			Inputs: []engine.Input{{Stream: 0, Key: key}},
			Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
			AggCol: 2,
		})
	}
	e, err := engine.New(cfg, []engine.StreamDef{stream}, qs)
	if err != nil {
		t.Fatal(err)
	}
	const every = 4
	r := newOverlapRecorder(1, cfg.NumGroups, every*cfg.TupleWeight)
	e.SetSampler(r, every)
	e.SetStreamRate(0, 20000)
	e.Run(2 * vtime.Second)

	classes := map[int]bool{}
	for qi := range qs {
		_, ci := e.ClassOf(qi, 0)
		classes[ci] = true
	}
	if len(classes) != 3 {
		t.Fatalf("queries share %d route classes, want 3 distinct-key classes", len(classes))
	}
	if n := r.col.Samples(); n < 100 {
		t.Fatalf("recorder collected %d samples, want at least 100", n)
	}
	d := r.TrainingData(0)
	if len(d.X) < 8 {
		t.Fatalf("overlap matrix yields %d training rows, want at least 8", len(d.X))
	}
	if _, err := ml.TrainForest(d, ml.ForestConfig{Trees: 10}, 1); err != nil {
		t.Fatalf("no forest trains on the collected overlap: %v", err)
	}
}

// FuzzOverlapRecorder drives overlapRecorder and the map-based
// refOverlap with the same seeded sample stream — several streams,
// classes absent from some samples, repeated groups within a sample —
// and requires the overlap matrix, TrainingData and PredictedSW on a
// small fixed forest to agree bit for bit.
func FuzzOverlapRecorder(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	forest := fixedForest(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkOverlapRecorder(t, rand.New(rand.NewSource(seed)), forest)
	})
}

// fixedForest trains a few shallow trees on random features, with
// labels that grow with the source group, the destination class and
// the timestamp, so its predictions vary with the features PredictedSW
// feeds it and some exceed PredictedSW's cap of 1.
func fixedForest(tb testing.TB) *ml.Forest {
	rng := rand.New(rand.NewSource(1))
	d := &ml.Dataset{}
	for i := 0; i < 200; i++ {
		c1, g1, c2, g2 := rng.Intn(64), rng.Intn(12), rng.Intn(64), rng.Intn(12)
		ts := rng.Float64() * 2
		d.X = append(d.X, featureRow(c1, keyspace.GroupID(g1), c2, keyspace.GroupID(g2), ts))
		d.Y = append(d.Y, 0.6*float64(g1%3)+0.2*float64(c2%2)+0.05*ts)
	}
	f, err := ml.TrainForest(d, ml.ForestConfig{
		Trees: 4,
		Tree:  ml.TreeConfig{FeatureSubset: 6, MinLeaf: 1, MaxDepth: 6},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func checkOverlapRecorder(t *testing.T, rng *rand.Rand, forest *ml.Forest) {
	palette := []int{0, 1, 2, 3, 5, 17, 40, 63}
	probe := append([]int{4, 100}, palette...)
	numStreams, numGroups := 1+rng.Intn(3), 1+rng.Intn(12)
	scale := []float64{1, 0.1, 7.25, 500}[rng.Intn(4)]
	r, ref := newOverlapRecorder(numStreams, numGroups, scale), newRefOverlap(numStreams, numGroups, scale)
	active := make([][]int, numStreams)
	for s := range active {
		for _, ci := range palette {
			if rng.Intn(3) > 0 {
				active[s] = append(active[s], ci)
			}
		}
	}
	now := vtime.Time(0)
	for n := rng.Intn(400); n > 0; n-- {
		s := rng.Intn(numStreams)
		v := engine.SampleVec{Stream: engine.StreamID(s), Time: now}
		hot := keyspace.GroupID(rng.Intn(numGroups))
		for _, ci := range active[s] {
			if rng.Intn(4) == 0 {
				continue
			}
			g := hot // repeated groups make same-group overlap
			if rng.Intn(3) == 0 {
				g = keyspace.GroupID(rng.Intn(numGroups))
			}
			v.Classes = append(v.Classes, ci)
			v.Groups = append(v.Groups, g)
		}
		rng.Shuffle(len(v.Classes), func(i, j int) {
			v.Classes[i], v.Classes[j] = v.Classes[j], v.Classes[i]
			v.Groups[i], v.Groups[j] = v.Groups[j], v.Groups[i]
		})
		r.Sample(v)
		ref.Sample(v)
		now = now.Add(vtime.Millisecond * vtime.Duration(1+rng.Intn(50)))
	}

	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, reference %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", what, i, a[i], b[i])
			}
		}
	}
	for s := 0; s < numStreams; s++ {
		for _, ci := range probe {
			for _, cj := range probe {
				for g1 := 0; g1 < numGroups; g1++ {
					for g2 := 0; g2 < numGroups; g2++ {
						a, b := keyspace.GroupID(g1), keyspace.GroupID(g2)
						same("Overlap", []float64{r.overlap(s, ci, a, cj, b)}, []float64{ref.Overlap(s, ci, a, cj, b)})
					}
				}
			}
		}
		got, want := r.TrainingData(s), ref.TrainingData(s)
		same("TrainingData.Y", got.Y, want.Y)
		if len(got.X) != len(want.X) {
			t.Fatalf("TrainingData: %d rows, reference %d", len(got.X), len(want.X))
		}
		for i := range got.X {
			same("TrainingData.X", got.X[i], want.X[i])
		}
		for _, ci := range probe {
			same("PredictedSW", r.PredictedSW(forest, ci, active[s]), ref.PredictedSW(forest, ci, active[s]))
		}
	}
}
