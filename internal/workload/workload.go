// Package workload defines the common shape of a benchmark workload: a
// set of stream definitions, the continuous queries over them, and the
// offered rates. The three concrete workloads of the paper's evaluation
// live in internal/tpch, internal/ajoinwl and internal/gcm.
package workload

import (
	"fmt"

	"saspar/internal/engine"
	"saspar/internal/scenario"
)

// Workload bundles everything a system under test needs to run.
type Workload struct {
	Name    string
	Streams []engine.StreamDef
	Queries []engine.QuerySpec
	// Rates holds the offered rate per stream in modelled tuples per
	// virtual second.
	Rates []float64
	// Schedule holds the workload's own rate events, when it has any:
	// from each event's time on, that stream offers the event's rate
	// instead of Rates. Drivers hand it to core.Config.Script, which
	// replays it; workloads without one run at Rates throughout.
	Schedule scenario.Script
}

// Validate checks internal consistency.
func (w *Workload) Validate() error {
	if len(w.Streams) == 0 {
		return fmt.Errorf("workload %s: no streams", w.Name)
	}
	if len(w.Queries) == 0 {
		return fmt.Errorf("workload %s: no queries", w.Name)
	}
	if len(w.Rates) != len(w.Streams) {
		return fmt.Errorf("workload %s: %d rates for %d streams", w.Name, len(w.Rates), len(w.Streams))
	}
	for i, r := range w.Rates {
		if r <= 0 {
			return fmt.Errorf("workload %s: non-positive rate for stream %d", w.Name, i)
		}
	}
	for _, q := range w.Queries {
		for _, in := range q.Inputs {
			if int(in.Stream) < 0 || int(in.Stream) >= len(w.Streams) {
				return fmt.Errorf("workload %s: query %s references stream %d", w.Name, q.ID, in.Stream)
			}
		}
	}
	// A schedule strikes no nodes: with no nodes to target, Validate
	// rejects every fault event.
	if err := w.Schedule.Validate(0, len(w.Streams)); err != nil {
		return fmt.Errorf("workload %s: schedule: %w", w.Name, err)
	}
	return nil
}

// ApplyRates sets the offered rates on an engine built from this
// workload. scale multiplies every rate (drivers use it to search for
// the sustainable operating point or to shrink bench runs).
func (w *Workload) ApplyRates(e *engine.Engine, scale float64) {
	for i, r := range w.Rates {
		e.SetStreamRate(engine.StreamID(i), r*scale)
	}
}

// TotalRate reports the sum of offered stream rates.
func (w *Workload) TotalRate() float64 {
	var s float64
	for _, r := range w.Rates {
		s += r
	}
	return s
}

// RowAdapter lifts a per-row Generator to the block-native
// engine.Source interface the engine consumes. The adapter draws one
// row at a time in block row order, so a wrapped generator produces
// exactly the sequence repeated Next calls would — batched and
// tuple-at-a-time execution stay byte-identical (pinned by
// TestRowAdapterMatchesNative). Workload packages should implement
// NextBlock natively for the hot path; the adapter is for quick
// prototype generators and tests.
func RowAdapter(g engine.Generator) engine.Source {
	return &rowAdapter{g: g}
}

type rowAdapter struct {
	g engine.Generator
	// shim is the Tuple staging cell; a field so its address crossing
	// the Generator interface does not force a per-block allocation.
	shim engine.Tuple
}

func (a *rowAdapter) NextBlock(b *engine.TupleBlock, from, to int) {
	// The caller sized the lanes: every populated column lane spans the
	// block, so the lane count is discoverable from the block itself.
	cols := 0
	for cols < engine.MaxCols && len(b.Col[cols]) > 0 {
		cols++
	}
	t := &a.shim
	for r := from; r < to; r++ {
		a.g.Next(t, b.TS[r])
		for c := 0; c < cols; c++ {
			b.Col[c][r] = t.Cols[c]
		}
	}
}
