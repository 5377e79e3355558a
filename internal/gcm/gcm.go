// Package gcm implements the paper's third workload, the Google
// Cluster Monitoring benchmark (Reiss et al. trace format): a stream of
// task events and the two aggregation queries of Fig. 13. The queries
// are "computationally less expensive than the other workloads, since
// they do not contain joins but only a single aggregation", and with
// only two queries the sharing potential is deliberately small — the
// GCM experiment exists to show SASPAR's gain shrinking gracefully.
//
// The production trace is not redistributable, so events are synthetic
// with the trace's schema and heavy machine/job skew (DESIGN.md §1).
package gcm

import (
	"fmt"
	"math/rand"

	"saspar/internal/engine"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// Task-event column slots (a streaming cut of the trace's task_events
// table).
const (
	ColJobID     = 0
	ColMachineID = 1
	ColEventType = 2 // submit/schedule/evict/fail/finish/kill
	ColPriority  = 3
	ColCPU       = 4 // milli-cores requested
	ColMem       = 5 // MB requested
)

// Config shapes the workload.
type Config struct {
	Machines int64
	Jobs     int64
	Skew     float64
	Window   engine.WindowSpec
	Rate     float64 // events per second
	// NumQueries is 1 or 2 (Fig. 13's x-axis).
	NumQueries int
}

// DefaultConfig returns the two-query configuration of Fig. 13.
func DefaultConfig() Config {
	return Config{
		Machines:   12500, // the trace's cluster size
		Jobs:       650000,
		Skew:       1.1,
		Window:     engine.WindowSpec{Range: 10 * vtime.Second, Slide: 10 * vtime.Second},
		Rate:       1e6,
		NumQueries: 2,
	}
}

// New builds the workload.
func New(cfg Config) (*workload.Workload, error) {
	if cfg.NumQueries < 1 || cfg.NumQueries > 2 {
		return nil, fmt.Errorf("gcm: the benchmark defines 1 or 2 queries, got %d", cfg.NumQueries)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("gcm: non-positive rate")
	}
	w := &workload.Workload{
		Name: "gcm",
		Streams: []engine.StreamDef{{
			Name: "task_events", NumCols: 6, BytesPerTuple: 112,
			NewSource: func(task int) engine.Source { return newGen(cfg, task) },
		}},
		Rates: []float64{cfg.Rate},
	}
	// Query 1: resource demand per machine (CPU sum, keyed by machine).
	w.Queries = append(w.Queries, engine.QuerySpec{
		ID:   "gcm-machine-cpu",
		Kind: engine.OpAggregate,
		Inputs: []engine.Input{{
			Stream: 0, Key: engine.KeySpec{ColMachineID},
		}},
		Window: cfg.Window,
		AggCol: ColCPU,
	})
	if cfg.NumQueries == 2 {
		// Query 2: per-job memory footprint (keyed by job).
		w.Queries = append(w.Queries, engine.QuerySpec{
			ID:   "gcm-job-mem",
			Kind: engine.OpAggregate,
			Inputs: []engine.Input{{
				Stream: 0, Key: engine.KeySpec{ColJobID},
			}},
			Window: cfg.Window,
			AggCol: ColMem,
		})
	}
	return w, w.Validate()
}

// gen implements engine.Source natively (plus the row-level
// engine.Generator for tests and CSV sampling): NextBlock makes the same
// per-row draws as Next in ascending row order, writing lanes directly,
// so batched and tuple-at-a-time execution stay byte-identical.
type gen struct {
	cfg Config
	pow *workload.PowCurve
	rng *rand.Rand
}

func newGen(cfg Config, task int) *gen {
	return &gen{cfg: cfg, pow: workload.PowCurveOf(1 + cfg.Skew), rng: rand.New(rand.NewSource(int64(task)*2654435761 + 3))}
}

func (g *gen) Next(t *engine.Tuple, ts vtime.Time) {
	cfg, rng := &g.cfg, g.rng
	t.Cols[ColJobID] = g.pow.Draw(rng, cfg.Jobs)
	t.Cols[ColMachineID] = g.pow.Draw(rng, cfg.Machines)
	t.Cols[ColEventType] = rng.Int63n(6)
	t.Cols[ColPriority] = rng.Int63n(12)
	t.Cols[ColCPU] = 10 + rng.Int63n(4000)
	t.Cols[ColMem] = 16 + rng.Int63n(16384)
}

func (g *gen) NextBlock(b *engine.TupleBlock, from, to int) {
	cfg, rng := &g.cfg, g.rng
	jobs, machines := b.Col[ColJobID], b.Col[ColMachineID]
	events, prio, cpu, mem := b.Col[ColEventType], b.Col[ColPriority], b.Col[ColCPU], b.Col[ColMem]
	for r := from; r < to; r++ {
		jobs[r] = g.pow.Draw(rng, cfg.Jobs)
		machines[r] = g.pow.Draw(rng, cfg.Machines)
		events[r] = rng.Int63n(6)
		prio[r] = rng.Int63n(12)
		cpu[r] = 10 + rng.Int63n(4000)
		mem[r] = 16 + rng.Int63n(16384)
	}
}
