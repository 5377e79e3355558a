package bench

import (
	"fmt"
	"io"
	"math"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/ml"
	"saspar/internal/parallel"
	"saspar/internal/stats"
	"saspar/internal/vtime"
)

// MLRow is one point of the paper's ML microbenchmark (Section V-C:
// "after 250 splits, the error rate of our model goes below 10%"):
// ensemble size on the x-axis measured in accumulated splits, relative
// SharedWith prediction error on the y-axis.
type MLRow struct {
	Trees    int
	Splits   int
	ErrorPct float64
}

// MLAccuracy trains forests of increasing size on one statistics epoch
// and measures the SharedWith prediction error against an independent
// second epoch of the same process — generalization, not recall, which
// is what the running system needs from the model.
func MLAccuracy(sc Scale) ([]MLRow, error) {
	groups := sc.Groups
	rec := newOverlapRecorder(1, groups, 1)
	hold := stats.NewCollector(1, groups, 1)

	// Graded sharing structure: class 0's group g aligns with class 1's
	// same group with probability g/groups, and with class 2's on a
	// coarse band. Every group carries its own sharing level, so a
	// small ensemble underfits (few splits cannot represent 32 levels)
	// and the error falls as splits accumulate — the paper's curve.
	mix := keyspace.Mix64
	emit := func(c engine.Sampler, i uint64) {
		h := mix(i)
		g0 := int(h % uint64(groups))
		u := float64(mix(h)%1000) / 1000
		g1 := (g0 + 1) % groups
		if u < float64(g0)/float64(groups) {
			g1 = g0
		}
		g2 := g0
		if g0 < groups*3/4 {
			g2 = (g0 + 2) % groups
		}
		c.Sample(engine.SampleVec{
			Stream:  0,
			Time:    vtime.Time(i) * vtime.Time(vtime.Millisecond),
			Classes: []int{0, 1, 2},
			Groups:  []keyspace.GroupID{keyspace.GroupID(g0), keyspace.GroupID(g1), keyspace.GroupID(g2)},
		})
	}
	// Sparse training epoch (sampling noise to overfit) and a large
	// held-out epoch as ground truth.
	for i := uint64(0); i < 700; i++ {
		emit(rec, i)
	}
	for i := uint64(100000); i < 120000; i++ {
		emit(hold, i)
	}
	data := rec.TrainingData(0)
	exact := hold.SWVector(0, 0)

	// Capacity ladder: shallow single trees first (few splits, heavy
	// underfit on the graded structure), then growing ensembles. The
	// trainings are independent (each seeds its own RNG; TrainForest
	// only reads the shared dataset), so they fan out as cells.
	ladder := []struct{ trees, depth int }{
		{1, 1}, {1, 2}, {1, 3}, {1, 5}, {2, 6}, {5, 8}, {10, 12}, {25, 12}, {50, 12},
	}
	return parallel.Map(sc.pool(), len(ladder), func(i int) (MLRow, error) {
		cap := ladder[i]
		// Six features only — no need to subsample features per split.
		f, err := ml.TrainForest(data, ml.ForestConfig{
			Trees: cap.trees,
			Tree:  ml.TreeConfig{FeatureSubset: 6, MinLeaf: 1, MaxDepth: cap.depth},
		}, 7)
		if err != nil {
			return MLRow{}, err
		}
		pred := rec.PredictedSW(f, 0, []int{1, 2})
		var errSum float64
		for g := range exact {
			errSum += math.Abs(pred[g] - exact[g])
		}
		return MLRow{
			Trees:    cap.trees,
			Splits:   f.Splits(),
			ErrorPct: 100 * errSum / float64(len(exact)),
		}, nil
	})
}

// PrintML renders the microbenchmark.
func PrintML(w io.Writer, rows []MLRow) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d\t%d\t%.1f", r.Trees, r.Splits, r.ErrorPct))
	}
	table(w, "trees\tsplits\tSharedWith error (%)", out)
}
