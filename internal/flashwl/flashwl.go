// Package flashwl is the flash-crowd workload: a skewed single-stream
// aggregation mix whose offered load swings 10× on a deterministic
// diurnal schedule. It exists to exercise the elastic autoscaler — the
// calm phases are comfortably inside the seed cluster's capacity, the
// flash phase drowns it, and the schedule repeats so scale-out and
// scale-in are both on the clock. All queries key on the same column,
// so the shared layer partitions the stream once while the sequential
// baseline pays the flash k times over.
package flashwl

import (
	"fmt"
	"math/rand"

	"saspar/internal/engine"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// Column slots.
const (
	ColKey   = 0 // skewed entity id — every query's key
	ColShard = 1 // secondary id, uncorrelated
	ColValue = 2 // aggregated payload
)

// Config shapes the workload.
type Config struct {
	// Keys is the entity-id domain size.
	Keys int64
	// Skew is the hot-key exponent (gcm-style power draw; higher is
	// more skewed).
	Skew float64
	// Window applies to every query.
	Window engine.WindowSpec
	// BaseRate is the calm-phase offered rate in tuples per virtual
	// second; the flash phase multiplies it by FlashScale.
	BaseRate float64
	// FlashScale is the crowd's rate multiplier (the paper-style 10×).
	FlashScale float64
	// FlashStart/FlashEnd delimit the flash inside each cycle.
	FlashStart, FlashEnd vtime.Duration
	// Period is one diurnal cycle; Cycles is how many the schedule
	// carries. Period 0 or Cycles 0 mean a single one-shot flash.
	Period vtime.Duration
	Cycles int
	// NumQueries is the number of identical-keyed aggregations.
	NumQueries int
}

// DefaultConfig returns a four-query mix with a 10× flash from 10s to
// 25s of each 60s cycle, two cycles.
func DefaultConfig() Config {
	return Config{
		Keys:       100000,
		Skew:       1.2,
		Window:     engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
		BaseRate:   5000,
		FlashScale: 10,
		FlashStart: 10 * vtime.Second,
		FlashEnd:   25 * vtime.Second,
		Period:     60 * vtime.Second,
		Cycles:     2,
		NumQueries: 4,
	}
}

// New builds the workload.
func New(cfg Config) (*workload.Workload, error) {
	if cfg.NumQueries < 1 {
		return nil, fmt.Errorf("flashwl: need at least one query, got %d", cfg.NumQueries)
	}
	if cfg.BaseRate <= 0 {
		return nil, fmt.Errorf("flashwl: non-positive base rate")
	}
	if cfg.FlashScale <= 1 {
		return nil, fmt.Errorf("flashwl: FlashScale %v is no crowd at all", cfg.FlashScale)
	}
	if cfg.FlashStart < 0 || cfg.FlashEnd <= cfg.FlashStart {
		return nil, fmt.Errorf("flashwl: flash window [%v, %v) is empty", cfg.FlashStart, cfg.FlashEnd)
	}
	cycles := cfg.Cycles
	if cycles < 1 || cfg.Period <= 0 {
		cycles = 1
	}
	if cfg.Period > 0 && cfg.FlashEnd > cfg.Period {
		return nil, fmt.Errorf("flashwl: flash end %v past the %v period", cfg.FlashEnd, cfg.Period)
	}
	w := &workload.Workload{
		Name: "flash",
		Streams: []engine.StreamDef{{
			Name: "events", NumCols: 3, BytesPerTuple: 64,
			NewSource: func(task int) engine.Source { return newGen(cfg, task) },
		}},
		Rates: []float64{cfg.BaseRate},
	}
	for q := 0; q < cfg.NumQueries; q++ {
		w.Queries = append(w.Queries, engine.QuerySpec{
			ID:   fmt.Sprintf("flash-sum-%d", q),
			Kind: engine.OpAggregate,
			Inputs: []engine.Input{{
				Stream: 0, Key: engine.KeySpec{ColKey},
			}},
			Window: cfg.Window,
			AggCol: ColValue,
		})
	}
	for c := 0; c < cycles; c++ {
		base := vtime.Time(0).Add(vtime.Duration(c) * cfg.Period)
		w.Schedule = append(w.Schedule,
			scenario.Event{At: base.Add(cfg.FlashStart), Kind: scenario.KindRate, Rate: cfg.BaseRate * cfg.FlashScale},
			scenario.Event{At: base.Add(cfg.FlashEnd), Kind: scenario.KindRate, Rate: cfg.BaseRate},
		)
	}
	return w, w.Validate()
}

// gen implements engine.Source natively plus engine.Generator for
// tests: NextBlock makes the same per-row draws as Next in ascending
// row order, so batched and tuple-at-a-time execution stay
// byte-identical.
type gen struct {
	cfg Config
	pow *workload.PowCurve
	rng *rand.Rand
}

func newGen(cfg Config, task int) *gen {
	return &gen{cfg: cfg, pow: workload.PowCurveOf(1 + cfg.Skew), rng: rand.New(rand.NewSource(int64(task)*2654435761 + 17))}
}

func (g *gen) Next(t *engine.Tuple, ts vtime.Time) {
	cfg, rng := &g.cfg, g.rng
	t.Cols[ColKey] = g.pow.Draw(rng, cfg.Keys)
	t.Cols[ColShard] = rng.Int63n(1024)
	t.Cols[ColValue] = 1 + rng.Int63n(1000)
}

func (g *gen) NextBlock(b *engine.TupleBlock, from, to int) {
	cfg, rng := &g.cfg, g.rng
	keys, shards, vals := b.Col[ColKey], b.Col[ColShard], b.Col[ColValue]
	for r := from; r < to; r++ {
		keys[r] = g.pow.Draw(rng, cfg.Keys)
		shards[r] = rng.Int63n(1024)
		vals[r] = 1 + rng.Int63n(1000)
	}
}
