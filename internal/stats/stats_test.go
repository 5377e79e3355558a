package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

func vec(stream int, t vtime.Time, pairs ...int) engine.SampleVec {
	v := engine.SampleVec{Stream: engine.StreamID(stream), Time: t}
	for i := 0; i < len(pairs); i += 2 {
		v.Classes = append(v.Classes, pairs[i])
		v.Groups = append(v.Groups, keyspace.GroupID(pairs[i+1]))
	}
	return v
}

func TestCardinalityScaling(t *testing.T) {
	c := NewCollector(1, 8, 100) // each sample = 100 modelled tuples
	c.Sample(vec(0, 0, 0, 3))
	c.Sample(vec(0, 0, 0, 3))
	c.Sample(vec(0, 0, 0, 5))
	if got := c.Card(0, 0, 3); got != 200 {
		t.Fatalf("Card(g3) = %v, want 200", got)
	}
	if got := c.Card(0, 0, 5); got != 100 {
		t.Fatalf("Card(g5) = %v, want 100", got)
	}
	if got := c.Card(0, 0, 7); got != 0 {
		t.Fatalf("Card(g7) = %v, want 0", got)
	}
	if c.Samples() != 3 {
		t.Fatalf("Samples = %d, want 3", c.Samples())
	}
}

func TestSharedWithAlignment(t *testing.T) {
	// Class 0 group 1: half its tuples align with class 1's group 1,
	// half land in class 1's group 2 — the Fig. 2a example: SW = 0.5.
	c := NewCollector(1, 8, 1)
	c.Sample(vec(0, 0, 0, 1, 1, 1))
	c.Sample(vec(0, 0, 0, 1, 1, 2))
	if got := c.SW(0, 0, 1); got != 0.5 {
		t.Fatalf("SW = %v, want 0.5", got)
	}
	// Symmetric view: class 1's group 1 fully aligns with class 0.
	if got := c.SW(0, 1, 1); got != 1.0 {
		t.Fatalf("SW(c1,g1) = %v, want 1.0", got)
	}
	// A group with no observations has no sharing.
	if got := c.SW(0, 0, 7); got != 0 {
		t.Fatalf("SW(empty) = %v, want 0", got)
	}
}

func TestSWTakesMaxOverPartners(t *testing.T) {
	// Class 0 aligns 1/3 with class 1 and 2/3 with class 2 on group 0.
	c := NewCollector(1, 4, 1)
	c.Sample(vec(0, 0, 0, 0, 1, 0, 2, 0))
	c.Sample(vec(0, 0, 0, 0, 1, 3, 2, 0))
	c.Sample(vec(0, 0, 0, 0, 1, 3, 2, 3))
	want := 2.0 / 3
	if got := c.SW(0, 0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SW = %v, want %v (max over partners)", got, want)
	}
}

func TestSWVectorAndCardVector(t *testing.T) {
	c := NewCollector(1, 4, 10)
	c.Sample(vec(0, 0, 0, 2, 1, 2))
	cv := c.CardVector(0, 0)
	if cv[2] != 10 || cv[0] != 0 {
		t.Fatalf("CardVector = %v", cv)
	}
	sv := c.SWVector(0, 0)
	if sv[2] != 1 || sv[0] != 0 {
		t.Fatalf("SWVector = %v", sv)
	}
	// Vectors are copies, not views.
	cv[2] = -1
	if c.Card(0, 0, 2) != 10 {
		t.Fatal("CardVector returned a live view")
	}
}

func TestDriftDetection(t *testing.T) {
	c := NewCollector(1, 4, 1)
	// Epoch 1: uniform over groups 0 and 1.
	for i := 0; i < 100; i++ {
		c.Sample(vec(0, 0, 0, i%2))
	}
	c.Reset(vtime.Time(vtime.Second))
	if got := c.Drift(0); got != 0 {
		t.Fatalf("drift right after reset = %v, want 0 (no data yet)", got)
	}
	// Epoch 2: identical distribution — drift ~0.
	for i := 0; i < 100; i++ {
		c.Sample(vec(0, 0, 0, i%2))
	}
	if got := c.Drift(0); got > 1e-9 {
		t.Fatalf("stationary drift = %v, want 0", got)
	}
	c.Reset(vtime.Time(2 * vtime.Second))
	// Epoch 3: everything moved to groups 2 and 3 — disjoint, L1 = 2.
	for i := 0; i < 100; i++ {
		c.Sample(vec(0, 0, 0, 2+i%2))
	}
	if got := c.Drift(0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("disjoint drift = %v, want 2", got)
	}
}

func TestGroupDriftLocalizesMovement(t *testing.T) {
	c := NewCollector(1, 4, 1)
	// Epoch 1: half the volume on group 0, half on group 1.
	for i := 0; i < 100; i++ {
		c.Sample(vec(0, 0, 0, i%2))
	}
	c.Reset(vtime.Time(vtime.Second))
	if gd := c.GroupDrift(0); gd[0] != 0 || gd[1] != 0 {
		t.Fatalf("drift right after reset = %v, want zeros (no data yet)", gd)
	}
	// Epoch 2: group 1's share moved to group 2; group 0 held still.
	for i := 0; i < 100; i++ {
		g := 0
		if i%2 == 1 {
			g = 2
		}
		c.Sample(vec(0, 0, 0, g))
	}
	gd := c.GroupDrift(0)
	if math.Abs(gd[1]-0.5) > 1e-9 || math.Abs(gd[2]-0.5) > 1e-9 {
		t.Fatalf("moved groups drift = %v, want 0.5 at groups 1 and 2", gd)
	}
	if gd[0] > 1e-9 || gd[3] > 1e-9 {
		t.Fatalf("stationary groups drifted: %v", gd)
	}
	// The per-group decomposition must tile the stream-level L1.
	var sum float64
	for _, d := range gd {
		sum += d
	}
	if math.Abs(sum-c.Drift(0)) > 1e-9 {
		t.Fatalf("sum of group drifts %v != stream drift %v", sum, c.Drift(0))
	}
}

func TestResetClearsCounts(t *testing.T) {
	c := NewCollector(2, 4, 1)
	c.Sample(vec(1, 0, 0, 2))
	c.Reset(0)
	if c.Samples() != 0 || c.Card(1, 0, 2) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestClassesEnumeration(t *testing.T) {
	c := NewCollector(1, 4, 1)
	c.Sample(vec(0, 0, 3, 1, 7, 2))
	got := map[int]bool{}
	for _, ci := range c.Classes(0) {
		got[ci] = true
	}
	if !got[3] || !got[7] || len(got) != 2 {
		t.Fatalf("Classes = %v, want {3,7}", got)
	}
}

func TestNewCollectorValidation(t *testing.T) {
	for _, args := range [][3]interface{}{} {
		_ = args
	}
	bad := []struct {
		s, g  int
		scale float64
	}{
		{0, 4, 1}, {1, 0, 1}, {1, 4, 0},
	}
	for i, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewCollector(b.s, b.g, b.scale)
		}()
	}
}

// FuzzCollector drives Collector and the map-based refCollector with
// the same seeded sample stream over several Reset epochs — classes
// appearing and vanishing between epochs, repeated groups within a
// sample — and requires every statistic to agree bit for bit.
func FuzzCollector(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCollector(t, rand.New(rand.NewSource(seed)))
	})
}

func checkCollector(t *testing.T, rng *rand.Rand) {
	palette := []int{0, 1, 2, 3, 5, 17, 40, 63} // route-class ids in [0, MaxClasses)
	probe := append([]int{-1, 4, MaxClasses, 100}, palette...)
	numStreams, numGroups := 1+rng.Intn(3), 1+rng.Intn(12)
	scale := []float64{1, 0.1, 7.25, 500}[rng.Intn(4)]
	c, ref := NewCollector(numStreams, numGroups, scale), newRefCollector(numStreams, numGroups, scale)
	epochs := 1 + rng.Intn(5)
	now := vtime.Time(0)
	for ep := 0; ep < epochs; ep++ {
		// Each epoch samples its own subset of the palette per stream.
		active := make([][]int, numStreams)
		for s := range active {
			for _, ci := range palette {
				if rng.Intn(3) > 0 {
					active[s] = append(active[s], ci)
				}
			}
		}
		for n := rng.Intn(200); n > 0; n-- {
			s := rng.Intn(numStreams)
			v := engine.SampleVec{Stream: engine.StreamID(s), Time: now}
			hot := keyspace.GroupID(rng.Intn(numGroups))
			for _, ci := range active[s] {
				if rng.Intn(4) == 0 {
					continue
				}
				g := hot // repeated groups make aligned counts
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
			c.Sample(v)
			ref.Sample(v)
			now = now.Add(vtime.Millisecond)
			if rng.Intn(50) == 0 {
				compareCollectors(t, c, ref, probe)
			}
		}
		compareCollectors(t, c, ref, probe)
		now = now.Add(vtime.Second)
		c.Reset(now)
		ref.Reset(now)
		compareCollectors(t, c, ref, probe)
	}
}

func compareCollectors(t *testing.T, c *Collector, ref *refCollector, probe []int) {
	t.Helper()
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
	if c.Samples() != ref.Samples() {
		t.Fatalf("Samples = %d, reference %d", c.Samples(), ref.Samples())
	}
	for s := range c.streams {
		if got, want := c.Classes(s), ref.Classes(s); !slices.Equal(got, want) {
			t.Fatalf("stream %d: Classes = %v, reference %v", s, got, want)
		}
		same("Drift", []float64{c.Drift(s)}, []float64{ref.Drift(s)})
		same("GroupDrift", c.GroupDrift(s), ref.GroupDrift(s))
		for _, ci := range probe {
			same("CardVector", c.CardVector(s, ci), ref.CardVector(s, ci))
			same("SWVector", c.SWVector(s, ci), ref.SWVector(s, ci))
			for g := 0; g < c.numGroups; g++ {
				same("Card", []float64{c.Card(s, ci, keyspace.GroupID(g))}, []float64{ref.Card(s, ci, keyspace.GroupID(g))})
			}
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestSampleRejectsClassOutOfRange(t *testing.T) {
	for _, ci := range []int{-1, MaxClasses} {
		c := NewCollector(1, 4, 1)
		if !panics(func() { c.Sample(vec(0, 0, 0, 1, ci, 1)) }) {
			t.Errorf("class %d outside [0, %d) accepted", ci, MaxClasses)
		}
	}
}
