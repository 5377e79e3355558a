package engine

import (
	"fmt"
	"math"

	"saspar/internal/cluster"
	"saspar/internal/netsim"
	"saspar/internal/vtime"
)

// WindowSpec is a sliding event-time window [Range r, Slide s] as in
// Listing 1 of the paper. Range == Slide is a tumbling window.
type WindowSpec struct {
	Range vtime.Duration
	Slide vtime.Duration
}

func (w WindowSpec) validate() error {
	if w.Range <= 0 || w.Slide <= 0 {
		return fmt.Errorf("engine: window range and slide must be positive, got %v/%v", w.Range, w.Slide)
	}
	if w.Slide > w.Range {
		return fmt.Errorf("engine: window slide %v exceeds range %v", w.Slide, w.Range)
	}
	return nil
}

// Panes reports how many concurrently open window instances a tuple
// belongs to: ceil(Range/Slide).
func (w WindowSpec) Panes() int {
	return int(math.Ceil(float64(w.Range) / float64(w.Slide)))
}

// WindowsOf returns the start times of every window instance containing
// event time ts (window instances are aligned to multiples of Slide).
func (w WindowSpec) WindowsOf(ts vtime.Time) []vtime.Time {
	newest, n := w.span(ts)
	out := make([]vtime.Time, n)
	for i := range out {
		out[i] = newest - vtime.Time(i)*vtime.Time(w.Slide)
	}
	return out
}

// span is WindowsOf without the slice: the windows containing ts start
// at newest, newest−Slide, … (n of them, newest first). A start s
// holds ts iff s <= ts < s+Range, so the run stops at the first start
// that is negative or ends at or before ts; there are at most Panes.
func (w WindowSpec) span(ts vtime.Time) (newest vtime.Time, n int) {
	slide := vtime.Time(w.Slide)
	newest = ts - ts%slide
	for s := newest; s >= 0 && s.Add(w.Range) > ts; s -= slide {
		n++
	}
	return newest, n
}

// Input is one input stream of a query: which stream, what partitioning
// key, and an optional pre-partition filter. Filters run before the
// partitioner; SASPAR shares the post-filter stream (Section I-C).
type Input struct {
	Stream StreamID
	Key    KeySpec

	// Selectivity is the fraction of tuples passing the filter. With a
	// nil Filter, concrete tuples are dropped stochastically with this
	// probability so downstream counts stay correct in distribution.
	// 1.0 (or 0) means "no filter".
	Selectivity float64
	// Filter, when non-nil, is applied concretely. FilterID must then
	// uniquely identify the predicate: inputs with equal FilterID (and
	// key and assignment) can share one route class.
	Filter   func(*Tuple) bool
	FilterID int
}

func (in Input) effectiveSelectivity() float64 {
	if in.Selectivity <= 0 || in.Selectivity > 1 {
		return 1
	}
	return in.Selectivity
}

// OpKind distinguishes the post-partition operator of a query.
type OpKind int

const (
	// OpAggregate is a windowed grouped aggregation (Q1 of Listing 1).
	OpAggregate OpKind = iota
	// OpJoin is a windowed equi-join over two inputs (Q2 of Listing 1).
	OpJoin
)

// QuerySpec is one continuous query as the engine executes it: one
// input (aggregation) or two inputs (join), a window, and the
// aggregation column. Per Eq. 3 of the paper, both inputs of a join
// always share one group→partition assignment.
type QuerySpec struct {
	ID     string
	Kind   OpKind
	Inputs []Input
	Window WindowSpec

	// AggCol is the column folded by the aggregation (ignored for joins).
	AggCol int

	// JoinFanout estimates emitted join results per inserted tuple,
	// used for output-cost accounting in counting mode. Defaults to 0.25.
	JoinFanout float64
}

func (q QuerySpec) validate(streams []StreamDef) error {
	switch q.Kind {
	case OpAggregate:
		if len(q.Inputs) != 1 {
			return fmt.Errorf("engine: query %s: aggregation needs exactly 1 input, got %d", q.ID, len(q.Inputs))
		}
	case OpJoin:
		if len(q.Inputs) != 2 {
			return fmt.Errorf("engine: query %s: join needs exactly 2 inputs, got %d", q.ID, len(q.Inputs))
		}
	default:
		return fmt.Errorf("engine: query %s: unknown op kind %d", q.ID, q.Kind)
	}
	if err := q.Window.validate(); err != nil {
		return fmt.Errorf("query %s: %w", q.ID, err)
	}
	for i, in := range q.Inputs {
		if int(in.Stream) < 0 || int(in.Stream) >= len(streams) {
			return fmt.Errorf("engine: query %s input %d references unknown stream %d", q.ID, i, in.Stream)
		}
		if len(in.Key) == 0 {
			return fmt.Errorf("engine: query %s input %d has an empty key spec", q.ID, i)
		}
		for _, c := range in.Key {
			if c < 0 || c >= streams[in.Stream].NumCols {
				return fmt.Errorf("engine: query %s input %d key column %d out of schema range", q.ID, i, c)
			}
		}
	}
	return nil
}

// Config assembles one engine run.
type Config struct {
	Nodes      int
	NodeConfig cluster.Config
	Net        netsim.Config
	Cost       CostModel
	Profile    Profile

	// NumPartitions is the number of cluster-wide partition slots;
	// NumGroups the size of the shared key-group space (Section II-A).
	NumPartitions int
	NumGroups     int

	// SourceTasks is the number of physical source tasks per stream
	// (they form one logical source operator, as in Fig. 1).
	SourceTasks int

	// Shared enables the SASPAR shared partitioner; false runs the
	// per-query partitioning of the vanilla SPE.
	Shared bool

	// TupleWeight is how many modelled tuples one concrete tuple
	// represents. All byte/CPU/cardinality accounting scales by it;
	// correctness tests use 1.
	TupleWeight float64

	// Tick is the virtual-time step of the simulation loop.
	Tick vtime.Duration

	// BatchSize is the row capacity of the columnar generation blocks
	// the data plane moves (see TupleBlock): sources fill, and routers
	// classify, up to this many concrete tuples at a time. It is purely
	// an execution blocking factor — reports, traces and metrics are
	// byte-identical at every value (the determinism suite proves
	// {1, 7, 64}). 0 means the default of 64.
	BatchSize int

	// WatermarkLag is how far watermarks trail the source clock.
	WatermarkLag vtime.Duration

	// FlowContentionCoeff derates effective network bandwidth per
	// concurrent partitioning flow (see netsim.SetFlowContention);
	// 0 disables the effect.
	FlowContentionCoeff float64

	// ExactWindows maintains concrete window state (real sums, real
	// join buffers, real results) instead of weighted counters. It is
	// what every sasparctl command runs, serve included; the paper's
	// figures run counters.
	ExactWindows bool

	Seed int64
}

// DefaultConfig returns the paper-shaped run configuration: 8 nodes,
// Flink-like profile, 32 partition slots, 128 key groups, 8 source
// tasks per stream.
func DefaultConfig() Config {
	return Config{
		Nodes:               8,
		NodeConfig:          cluster.DefaultConfig(),
		Net:                 netsim.DefaultConfig(),
		Cost:                DefaultCostModel(),
		Profile:             Profile{Name: "flink"},
		NumPartitions:       32,
		NumGroups:           128,
		SourceTasks:         8,
		TupleWeight:         1,
		Tick:                100 * vtime.Millisecond,
		BatchSize:           64,
		WatermarkLag:        200 * vtime.Millisecond,
		FlowContentionCoeff: 0.03,
		Seed:                1,
	}
}

// Validate checks the run-independent configuration fields and returns
// a descriptive error for the first violation. New calls it (together
// with the stream/query checks) before building anything, so a bad
// configuration fails loudly at construction instead of being silently
// clamped mid-run. Callers assembling configurations programmatically
// can call it directly to fail early.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("engine: need at least one node, got %d", c.Nodes)
	}
	if c.NumPartitions <= 0 || c.NumGroups <= 0 {
		return fmt.Errorf("engine: partitions (%d) and groups (%d) must be positive", c.NumPartitions, c.NumGroups)
	}
	if c.NumGroups < c.NumPartitions {
		return fmt.Errorf("engine: need at least as many key groups (%d) as partitions (%d)", c.NumGroups, c.NumPartitions)
	}
	if c.SourceTasks <= 0 {
		return fmt.Errorf("engine: need at least one source task per stream, got %d", c.SourceTasks)
	}
	if c.TupleWeight < 1 {
		return fmt.Errorf("engine: tuple weight must be >= 1, got %v", c.TupleWeight)
	}
	if c.Tick <= 0 {
		return fmt.Errorf("engine: tick must be positive, got %v", c.Tick)
	}
	if c.WatermarkLag < 0 {
		return fmt.Errorf("engine: watermark lag must be non-negative, got %v", c.WatermarkLag)
	}
	if c.FlowContentionCoeff < 0 {
		return fmt.Errorf("engine: flow contention coefficient must be non-negative, got %v", c.FlowContentionCoeff)
	}
	if c.BatchSize < 0 || c.BatchSize > 1<<16 {
		return fmt.Errorf("engine: batch size must be in [0, %d] (0 means the default of 64), got %d", 1<<16, c.BatchSize)
	}
	if err := c.Cost.validate(); err != nil {
		return err
	}
	return c.Profile.validate()
}

func (c Config) validate(streams []StreamDef, queries []QuerySpec) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(streams) == 0 {
		return fmt.Errorf("engine: no streams defined")
	}
	for i, s := range streams {
		if s.NumCols <= 0 || s.NumCols > MaxCols {
			return fmt.Errorf("engine: stream %d (%s) schema width %d outside [1,%d]", i, s.Name, s.NumCols, MaxCols)
		}
		if s.BytesPerTuple <= 0 {
			return fmt.Errorf("engine: stream %d (%s) needs positive tuple size", i, s.Name)
		}
		if s.NewSource == nil {
			return fmt.Errorf("engine: stream %d (%s) has no source", i, s.Name)
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("engine: no queries defined")
	}
	for _, q := range queries {
		if err := q.validate(streams); err != nil {
			return err
		}
	}
	return nil
}
