package bench

import (
	"fmt"
	"time"

	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/mip"
	"saspar/internal/ml"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// This file holds the design-choice ablations called out in DESIGN.md
// §5 — benches that quantify why the system is built the way it is.
// Only AblationDedup submits cells to the run-matrix pool; the solver
// ablations (Bounds, ModelRepair, MLStats) measure or depend on real
// wall clock and must run alone on the machine.

// SynthRequest exposes the synthetic optimizer-request builder for the
// root benchmarks.
func SynthRequest(size OptSize, seed int64) *optimizer.Request {
	return synthRequest(size, seed)
}

// AblationRow is one measured variant of an ablation.
type AblationRow struct {
	Name   string
	Millis float64
	Value  float64
}

// AblationBounds compares the solver's combinatorial root bound against
// the LP-relaxation bound on an instance small enough for the dense
// simplex: tightness (bound value) and the cost of obtaining it.
func AblationBounds() ([]AblationRow, error) {
	req := synthRequest(OptSize{Queries: 3, Partitions: 4, Groups: 8}, 11)
	inst := optimizer.ExportInstance(req)

	start := time.Now()
	res, err := mip.Solve(inst, mip.Options{TimeBudget: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	combMs := float64(time.Since(start).Microseconds()) / 1000

	start = time.Now()
	lpBound, err := mip.LPBound(inst)
	if err != nil {
		return nil, err
	}
	lpMs := float64(time.Since(start).Microseconds()) / 1000

	return []AblationRow{
		{Name: "combinatorial_exact", Millis: combMs, Value: res.Bound},
		{Name: "lp_relaxation", Millis: lpMs, Value: lpBound},
	}, nil
}

// DedupResult compares wire cost with and without the shared
// partitioner's single-copy dedup for identical queries, normalized to
// bytes per million processed (per-query logical) tuples so the two
// operating points are comparable even when one is capacity-limited.
type DedupResult struct {
	SharedMB   float64 // MB per 1M processed tuples, shared partitioner
	UnsharedMB float64 // MB per 1M processed tuples, per-query copies
}

// AblationDedup runs four identical-key aggregation queries with and
// without the shared partitioner and reports steady-state wire bytes.
func AblationDedup(sc Scale) (*DedupResult, error) {
	streams := []engine.StreamDef{{
		Name: "s", NumCols: 2, BytesPerTuple: 100,
		NewSource: func(task int) engine.Source {
			i := int64(task) * 977
			return workload.RowAdapter(engine.GeneratorFunc(func(t *engine.Tuple, ts vtime.Time) {
				i++
				t.Cols[0] = i % 512
				t.Cols[1] = 1
			}))
		},
	}}
	var queries []engine.QuerySpec
	for q := 0; q < 4; q++ {
		queries = append(queries, engine.QuerySpec{
			ID: fmt.Sprintf("q%d", q), Kind: engine.OpAggregate,
			Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
			Window: sc.window(), AggCol: 1,
		})
	}
	run := func(shared bool) (float64, error) {
		engCfg := sc.engineConfig()
		coreCfg := sc.coreConfig()
		coreCfg.Enabled = shared
		coreCfg.TriggerInterval = 1000 * vtime.Second // isolate the dedup effect
		sys, err := core.New(engCfg, streams, queries, coreCfg)
		if err != nil {
			return 0, err
		}
		sys.Engine().SetStreamRate(0, sc.Rate)
		sys.Run(sc.Warmup)
		before := sys.Engine().Network().Stats().BytesNet
		m := sys.Engine().Metrics()
		m.StartMeasurement(sys.Engine().Clock())
		sys.Run(sc.Measure)
		m.StopMeasurement(sys.Engine().Clock())
		bytes := sys.Engine().Network().Stats().BytesNet - before
		if m.ProcessedTotal() == 0 {
			return 0, fmt.Errorf("bench: dedup run processed nothing")
		}
		return bytes / m.ProcessedTotal(), nil
	}
	// The two operating points are independent virtual-time runs — fan
	// them out like any other cell pair.
	pts, err := parallel.Map(sc.pool(), 2, func(i int) (float64, error) {
		return run(i == 0)
	})
	if err != nil {
		return nil, err
	}
	return &DedupResult{SharedMB: pts[0], UnsharedMB: pts[1]}, nil
}

// RepairResult compares plans produced under the repaired traffic model
// (DESIGN.md §1) and under the literal Eq. 4 (shareable term only),
// both scored under the repaired model.
type RepairResult struct {
	RepairedObjective float64
	LiteralObjective  float64
}

// AblationModelRepair quantifies the model-repair term: a literal Eq. 4
// objective thinks unshareable tuples travel free, so its plans score
// worse under the full cost.
func AblationModelRepair() (*RepairResult, error) {
	req := synthRequest(OptSize{Queries: 4, Partitions: 4, Groups: 16}, 13)
	inst := optimizer.ExportInstance(req)

	// Literal Eq. 4: traffic = max(a·Card·SW) only. Under the repaired
	// evaluator that is an instance with Card' = Card·SW and SW' = 1.
	literal := &mip.Instance{
		NumPartitions: inst.NumPartitions,
		NumGroups:     inst.NumGroups,
		NumStreams:    inst.NumStreams,
		LatP:          inst.LatP,
		LatProc:       inst.LatProc,
	}
	for _, c := range inst.Classes {
		nc := mip.Class{Label: c.Label, Weight: c.Weight}
		for _, cs := range c.Streams {
			card := make([]float64, len(cs.Card))
			sw := make([]float64, len(cs.SW))
			for g := range card {
				card[g] = cs.Card[g] * cs.SW[g]
				sw[g] = 1
			}
			nc.Streams = append(nc.Streams, mip.ClassStream{Stream: cs.Stream, Card: card, SW: sw})
		}
		literal.Classes = append(literal.Classes, nc)
	}

	// Node-capped, not clock-bounded, so every run plans the same: the
	// repaired model's incumbent stops improving before 3 M nodes (10 M
	// reads the same).
	opts := mip.Options{MaxNodes: 3000000, RelGap: 0.01}
	repaired, err := mip.Solve(inst, opts)
	if err != nil {
		return nil, err
	}
	lit, err := mip.Solve(literal, opts)
	if err != nil {
		return nil, err
	}
	return &RepairResult{
		RepairedObjective: mip.Evaluate(inst, repaired.Assign),
		LiteralObjective:  mip.Evaluate(inst, lit.Assign), // literal plan, true cost
	}, nil
}

// MLStatsResult compares optimizer outcomes on exact vs forest-predicted
// SharedWith statistics, both scored under the exact statistics.
type MLStatsResult struct {
	ExactObjective float64
	MLObjective    float64
}

// AblationMLStats builds collector statistics with a threshold sharing
// structure, trains the forest, and optimizes under both statistic
// sources.
func AblationMLStats(sc Scale) (*MLStatsResult, error) {
	groups := sc.Groups
	rec := newOverlapRecorder(1, groups, 1)
	col := rec.col
	mix := keyspace.Mix64
	for i := 0; i < 4000; i++ {
		g0 := int(mix(uint64(i)) % uint64(groups))
		g1 := g0
		if g0 >= groups/2 {
			g1 = (g0 + 1) % groups
		}
		rec.Sample(engine.SampleVec{
			Stream:  0,
			Time:    vtime.Time(i) * vtime.Time(vtime.Millisecond),
			Classes: []int{0, 1},
			Groups:  []keyspace.GroupID{keyspace.GroupID(g0), keyspace.GroupID(g1)},
		})
	}
	forest, err := ml.TrainForest(rec.TrainingData(0), ml.ForestConfig{Trees: 30}, 3)
	if err != nil {
		return nil, err
	}

	mkReq := func(useML bool) *optimizer.Request {
		req := &optimizer.Request{
			NumPartitions: 4, NumGroups: groups, NumStreams: 1,
			LocalFrac: make([]float64, 4),
			LatNet:    1, LatMem: 0.02, LatProc: 0.4,
		}
		for class := 0; class < 2; class++ {
			var sw []float64
			if useML {
				sw = rec.PredictedSW(forest, class, []int{0, 1})
			} else {
				sw = col.SWVector(0, class)
			}
			req.Queries = append(req.Queries, optimizer.QueryStats{
				ID: fmt.Sprintf("c%d", class), Weight: 1,
				Inputs: []optimizer.InputStats{{
					Stream: 0, Card: col.CardVector(0, class), SW: sw,
				}},
			})
		}
		return req
	}
	exactReq := mkReq(false)
	// A node cap, not a wall-clock budget, ends every solve, so both
	// objectives are the same on every run and every machine.
	opts := optimizer.Options{DeterministicBudget: true, MaxNodes: 1000000}
	exact, err := optimizer.Optimize(exactReq, opts)
	if err != nil {
		return nil, err
	}
	mlRes, err := optimizer.Optimize(mkReq(true), opts)
	if err != nil {
		return nil, err
	}
	// Score both plans under the exact statistics.
	exactObj, err := optimizer.Score(exactReq, exact.Assign)
	if err != nil {
		return nil, err
	}
	mlObj, err := optimizer.Score(exactReq, mlRes.Assign)
	if err != nil {
		return nil, err
	}
	return &MLStatsResult{ExactObjective: exactObj, MLObjective: mlObj}, nil
}
