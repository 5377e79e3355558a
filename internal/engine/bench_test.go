package engine

import (
	"fmt"
	"testing"

	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// The benchmarks in this file isolate the engine's inner loop — the
// tick step and the router hot path — so the allocation-elimination
// work (free-listed entries, reusable route buckets, precomputed route
// tables) is measurable without the figure harnesses on top.
// BENCH_pr1.json records their allocs/op trajectory.

// benchGen is the deterministic bench source (key skew comes from the
// multiplicative hash, not an RNG, so benchmark iterations are identical
// work). It implements both the scalar Generator and the block-native
// Source with the identical value sequence, so the benchmark measures
// the native lane path — workload.RowAdapter's equivalence is pinned in
// the workload package.
type benchGen struct{ i int64 }

func (g *benchGen) Next(t *Tuple, ts vtime.Time) {
	g.i++
	t.Cols[0] = (g.i * 2654435761) % 4096
	t.Cols[1] = (g.i * 40503) % 512
	t.Cols[2] = g.i % 97
}

func (g *benchGen) NextBlock(b *TupleBlock, from, to int) {
	c0, c1, c2 := b.Col[0], b.Col[1], b.Col[2]
	i := g.i
	for r := from; r < to; r++ {
		i++
		c0[r] = (i * 2654435761) % 4096
		c1[r] = (i * 40503) % 512
		c2[r] = i % 97
	}
	g.i = i
}

// benchStreams returns a two-stream definition over the bench source.
func benchStreams() []StreamDef {
	gen := func(salt int64) func(task int) Source {
		return func(task int) Source {
			return &benchGen{i: int64(task)*7919 + salt}
		}
	}
	return []StreamDef{
		{Name: "a", NumCols: 3, BytesPerTuple: 120, NewSource: gen(1)},
		{Name: "b", NumCols: 3, BytesPerTuple: 96, NewSource: gen(2)},
	}
}

// benchQueries mixes aggregations over two key columns with one join —
// several route classes per stream, as the TPC-H harness produces.
func benchQueries(n int) []QuerySpec {
	win := WindowSpec{Range: 2 * vtime.Second, Slide: 2 * vtime.Second}
	var qs []QuerySpec
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			qs = append(qs, QuerySpec{
				ID: fmt.Sprintf("agg0-%d", i), Kind: OpAggregate,
				Inputs: []Input{{Stream: 0, Key: KeySpec{0}}},
				Window: win, AggCol: 2,
			})
		case 1:
			qs = append(qs, QuerySpec{
				ID: fmt.Sprintf("agg1-%d", i), Kind: OpAggregate,
				Inputs: []Input{{Stream: 0, Key: KeySpec{1}}},
				Window: win, AggCol: 2,
			})
		default:
			qs = append(qs, QuerySpec{
				ID: fmt.Sprintf("join-%d", i), Kind: OpJoin,
				Inputs: []Input{
					{Stream: 0, Key: KeySpec{0}},
					{Stream: 1, Key: KeySpec{0}},
				},
				Window: win, JoinFanout: 0.25,
			})
		}
	}
	return qs
}

// benchFixture sizes the bench engine's tick. micro is the historical
// fixture: weight 500 in counting mode, ~5 k concrete rows per
// ~50–120 µs tick, too small to pay for fork/join. heavy is the shape
// `sasparctl serve` runs: weight 1 with exact windows, 20 k concrete
// rows per ms-scale tick.
type benchFixture struct {
	weight, rateA, rateB float64
	exact                bool
}

var (
	microFixture = benchFixture{weight: 500, rateA: 20e6, rateB: 5e6}
	heavyFixture = benchFixture{weight: 1, rateA: 160e3, rateB: 40e3, exact: true}
)

func benchEngine(b *testing.B, shared bool, queries int) *Engine {
	return benchEngineAt(b, shared, queries, microFixture)
}

func benchEngineAt(tb testing.TB, shared bool, queries int, fx benchFixture) *Engine {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NumPartitions = 8
	cfg.NumGroups = 32
	cfg.SourceTasks = 4
	cfg.TupleWeight = fx.weight
	cfg.ExactWindows = fx.exact
	cfg.Shared = shared
	e, err := New(cfg, benchStreams(), benchQueries(queries))
	if err != nil {
		tb.Fatal(err)
	}
	e.SetStreamRate(0, fx.rateA)
	e.SetStreamRate(1, fx.rateB)
	// Prime the pipeline so steady-state ticks (queues occupied, slots
	// draining) are what gets measured.
	e.Run(2 * vtime.Second)
	return e
}

// BenchmarkEngineStep measures one whole simulation tick — sources,
// routers, slot drains — in steady state.
func BenchmarkEngineStep(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"nonshared", false}, {"shared", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := benchEngine(b, mode.shared, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step()
			}
		})
	}
}

// BenchmarkEngineRun measures whole steady-state ticks through the
// public Run API on both sides of the engine's worker-sizing rule: the
// micro fixture, whose tick is too small to pay for fork/join, and the
// heavy one, whose tick is not — each pinned inline, pinned to real
// worker goroutines, and left to the automatic rule, which should
// track the better pinned arm on both. The budget is raised so the
// pinned arm is granted its workers even on a 1-core host. The
// determinism suite asserts output is byte-identical across the arms.
func BenchmarkEngineRun(b *testing.B) {
	for _, fx := range []struct {
		name string
		benchFixture
	}{{"micro", microFixture}, {"heavy", heavyFixture}} {
		for _, arm := range []struct {
			name   string
			pinned int
		}{{"inline", 1}, {"parallel", 4}, {"auto", 0}} {
			b.Run(fx.name+"/"+arm.name, func(b *testing.B) {
				parallel.SetBudget(8)
				defer parallel.SetBudget(-1)
				e := benchEngineAt(b, true, 6, fx.benchFixture)
				e.PinTickWorkers(arm.pinned)
				tick := e.cfg.Tick
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Run(tick); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(e.TickStats().Workers), "workers")
			})
		}
	}
}

// BenchmarkRouteTick isolates the router hot path: one tick of tuple
// generation, classification and bucket assembly for a single task.
func BenchmarkRouteTick(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"nonshared", false}, {"shared", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := benchEngine(b, mode.shared, 6)
			rt := e.tasks[0]
			dt := e.cfg.Tick
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Advance the clock so the generated timestamps move like
				// a real run; slots are not drained, so cap the queues by
				// recycling their entries every few iterations.
				e.clock = e.clock.Add(dt)
				e.cluster.BeginTick(dt)
				e.net.BeginTick(dt)
				nr := e.nodes[rt.node]
				nr.provEg = 0
				for j := range nr.provIn {
					nr.provIn[j] = 0
				}
				rt.routeTick(e, nr, dt)
				for j := range rt.pending {
					rt.commit(e, &rt.pending[j])
					rt.pending[j].en = nil
				}
				rt.pending = rt.pending[:0]
				if i%8 == 7 {
					drainForBench(e)
				}
			}
		})
	}
}

// drainForBench empties all slot edges without operator work so router
// benchmarks don't accumulate unbounded queues.
func drainForBench(e *Engine) {
	for _, s := range e.slots {
		for ei := range s.edges {
			q := &s.edges[ei]
			for !q.empty() {
				en := q.pop()
				e.inboxBytes[s.node] -= en.bytes
				e.nodes[s.node].recycle(en)
			}
		}
	}
}
