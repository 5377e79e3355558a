package main

import (
	"fmt"
	"time"

	"saspar/internal/checkpoint"
	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/gcm"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	srt "saspar/internal/runtime"
	"saspar/internal/tpch"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// The four workloads, by the names later issues refer to them with.
const (
	wlMixSat   = "mix-sat"
	wlGcmSat   = "gcm-sat"
	wlAggOpen  = "agg-open"
	wlVirtTpch = "virt-tpch"
)

var workloadNames = []string{wlMixSat, wlGcmSat, wlAggOpen, wlVirtTpch}

// workloadWhy is the one-line reason each workload exists; it is
// printed with the results and mirrored in BENCHMARK.json.
var workloadWhy = map[string]string{
	wlMixSat:   "closed loop at saturation, 3 aggregations + 1 join over 2 shared streams: slot insert and join buffers dominate, key state is tiny",
	wlGcmSat:   "closed loop at saturation, 2 aggregations over wide skewed gcm rows with ~100k live keys per window: window close is a quarter of the loop",
	wlAggOpen:  "open loop at a fixed 1.0M rows/s in 1024-row frames, a quarter of capacity: optimizer stalls set the ingest and window-close latency",
	wlVirtTpch: "virtual time on one goroutine, 14 tpch queries at weight 500: router, sampler and solver dominate, the runtime layer does nothing",
}

// Serving shape: what `sasparctl serve` runs with its defaults.
const (
	serveNodes      = 4
	serveGroups     = 32
	serveRingBlocks = 64
	serveBlockRows  = 4096
	triggerInterval = 8 * vtime.Second
	solveTimeout    = 200 * time.Millisecond
)

// cycleFrames is the length of the pre-encoded frame cycle each stream
// replays: long enough that a window never sees the same frame twice
// at 4096-row frames, short enough to encode during set-up.
const cycleFrames = 256

// probeBase is the first probe key. Probe keys sit far above every
// generated key, so a probe row is the only row of its key.
const probeBase = uint64(1) << 40

// serveSpec is one serving workload: the served queries, the traffic
// shape and how the passes are sized.
type serveSpec struct {
	name string
	wl   *workload.Workload

	frameRows int
	// open selects the open loop: frames are due on a fixed schedule of
	// rate rows/s that never waits for the server. Otherwise the loop is
	// closed: the generator writes as fast as the server accepts.
	open bool
	rate float64

	// nominal is the rows/s this box sustains on the workload, used only
	// to turn a pass length in seconds into a fixed row count.
	nominal float64

	// probeQuery is the aggregation whose results time window close;
	// its single key column on stream 0 carries the per-frame probe key.
	probeQuery int
}

// serveEngineConfig is `sasparctl serve`'s engine configuration.
func serveEngineConfig() engine.Config {
	c := engine.DefaultConfig()
	c.Nodes = serveNodes
	c.NumPartitions = 2 * serveNodes
	c.NumGroups = serveGroups
	c.SourceTasks = 1
	c.TupleWeight = 1
	c.ExactWindows = true
	return c
}

// serveCoreConfig is `sasparctl serve`'s SASPAR configuration, with the
// registry the benchmark reads counters from.
func serveCoreConfig(reg *obs.Registry) core.Config {
	c := core.DefaultConfig()
	c.TriggerInterval = triggerInterval
	c.Opt = optimizer.Options{Timeout: solveTimeout}
	c.Obs = reg
	return c
}

func serverConfig(spec *serveSpec, reg *obs.Registry, addr string) srt.Config {
	return srt.Config{
		Workload:   spec.wl,
		Engine:     serveEngineConfig(),
		Core:       serveCoreConfig(reg),
		Addr:       addr,
		RingBlocks: serveRingBlocks,
		BlockRows:  serveBlockRows,
	}
}

// hashSource is the generator of the synthetic three-column streams:
// row i holds three multiplicative hashes of i plus an offset, reduced
// to the column domains. The offset comes from the seed, so a seed
// names one input exactly and every seed has the same key spread.
type hashSource struct {
	next uint64
	mods [3]uint64
}

func (h *hashSource) NextBlock(b *engine.TupleBlock, from, to int) {
	for r := from; r < to; r++ {
		x := h.next * 0x9E3779B97F4A7C15
		h.next++
		y := x * 0xBF58476D1CE4E5B9
		z := y * 0x94D049BB133111EB
		b.Col[0][r] = int64((x >> 20) % h.mods[0])
		b.Col[1][r] = int64((y >> 24) % h.mods[1])
		b.Col[2][r] = int64((z >> 28) % h.mods[2])
	}
}

func hashStream(name string, salt uint64, mods [3]uint64) engine.StreamDef {
	return engine.StreamDef{
		Name: name, NumCols: 3, BytesPerTuple: 88,
		NewSource: func(task int) engine.Source {
			return &hashSource{next: uint64(task)*0x2545F4914F6CDD1D + salt, mods: mods}
		},
	}
}

func tumbling(d vtime.Duration) engine.WindowSpec { return engine.WindowSpec{Range: d, Slide: d} }

func newServeSpec(name string) (*serveSpec, error) {
	switch name {
	case wlMixSat:
		mods := [3]uint64{4096, 512, 97}
		win := tumbling(vtime.Second)
		agg := func(id string, s engine.StreamID, keyCol int) engine.QuerySpec {
			return engine.QuerySpec{
				ID: id, Kind: engine.OpAggregate,
				Inputs: []engine.Input{{Stream: s, Key: engine.KeySpec{keyCol}}},
				Window: win, AggCol: 2,
			}
		}
		w := &workload.Workload{
			Name:    name,
			Streams: []engine.StreamDef{hashStream("a", 0, mods), hashStream("b", 1<<32, mods)},
			Queries: []engine.QuerySpec{
				agg("a-by-wide", 0, 0),
				agg("a-by-narrow", 0, 1),
				agg("b-by-wide", 1, 0),
				{
					ID: "a-join-b", Kind: engine.OpJoin,
					Inputs: []engine.Input{
						{Stream: 0, Key: engine.KeySpec{0}},
						{Stream: 1, Key: engine.KeySpec{0}},
					},
					Window: win, JoinFanout: 0.25,
				},
			},
			Rates: []float64{1e6, 1e6}, // past validation; serving ignores rates
		}
		return &serveSpec{name: name, wl: w, frameRows: serveBlockRows, nominal: 1.45e6}, w.Validate()
	case wlGcmSat:
		cfg := gcm.DefaultConfig()
		cfg.Jobs = 200000
		cfg.Window = tumbling(vtime.Second)
		w, err := gcm.New(cfg)
		if err != nil {
			return nil, err
		}
		// Probe the job-keyed query: its key column (job id) is column 0.
		return &serveSpec{name: name, wl: w, frameRows: serveBlockRows, nominal: 1.0e6, probeQuery: 1}, nil
	case wlAggOpen:
		w := &workload.Workload{
			Name:    name,
			Streams: []engine.StreamDef{hashStream("events", 0, [3]uint64{4096, 512, 97})},
			Queries: []engine.QuerySpec{{
				ID: "sum-by-key", Kind: engine.OpAggregate,
				Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
				Window: tumbling(2 * vtime.Second), AggCol: 2,
			}},
			Rates: []float64{1e6},
		}
		return &serveSpec{name: name, wl: w, frameRows: 1024, open: true, rate: 1e6, nominal: 1e6}, w.Validate()
	}
	return nil, fmt.Errorf("no serving workload %q", name)
}

// probeCol is the column of stream 0 that carries the probe key.
func (s *serveSpec) probeCol() int {
	return s.wl.Queries[s.probeQuery].Inputs[0].Key[0]
}

// Virtual-time workload shape (the paper-figure path).
const virtTick = 100 * vtime.Millisecond // engine.DefaultConfig().Tick

const (
	virtSourceTasks  = 4
	virtTupleWeight  = 500
	virtLineitemRate = 40e6
	virtDriftPeriod  = 20 * vtime.Second
	virtCkptInterval = 10 * vtime.Second
	virtMaxNodes     = 50000
	// virtNominal is the virtual seconds this box simulates per wall
	// second, used only to turn a pass length into a fixed tick count.
	virtNominal = 30.0
)

// virtSolverOptions bounds the solver by work, not by wall clock, so
// every count of a virtual-time run repeats.
func virtSolverOptions() optimizer.Options {
	return optimizer.Options{DeterministicBudget: true, MaxNodes: virtMaxNodes}
}

func newVirtSystem(seed int64, reg *obs.Registry) (*core.System, *workload.Workload, error) {
	tc := tpch.DefaultConfig()
	tc.LineitemRate = virtLineitemRate
	tc.DriftPeriod = virtDriftPeriod
	w, err := tpch.New(tc)
	if err != nil {
		return nil, nil, err
	}
	ec := engine.DefaultConfig()
	ec.Nodes = serveNodes
	ec.NumPartitions = 2 * serveNodes
	ec.NumGroups = serveGroups
	ec.SourceTasks = virtSourceTasks
	ec.TupleWeight = virtTupleWeight
	ec.Seed = seed
	cc := core.DefaultConfig()
	cc.TriggerInterval = triggerInterval
	cc.Checkpoint = checkpoint.Config{Interval: virtCkptInterval}
	cc.Opt = virtSolverOptions()
	cc.Obs = reg
	sys, err := core.New(ec, w.Streams, w.Queries, cc)
	if err != nil {
		return nil, nil, err
	}
	w.ApplyRates(sys.Engine(), 1)
	return sys, w, nil
}
