// Package engine implements the virtual-time stream dataflow runtime
// that stands in for the paper's JVM stream processing engines (Flink,
// AJoin, Prompt — see DESIGN.md for the substitution argument).
//
// The engine moves real tuples through real operator graphs — sources,
// routers (the partition operator), iterator guards, windowed
// aggregations and joins, sinks — over a simulated cluster
// (internal/cluster) and network (internal/netsim), advancing on a
// virtual clock. Per-tuple CPU, serialization, and network byte costs
// are charged against node meters, so throughput ceilings, queueing
// latency and backpressure emerge from resource contention exactly as
// they do on the paper's testbed.
//
// Tuples carry a weight: a concrete tuple may represent W identical
// tuples of the modelled stream, so count-level accounting can run at
// millions of tuples per second while the concrete tuple rate stays
// tractable. Correctness tests run with weight 1.
package engine

import (
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// MaxCols is the widest tuple schema supported. TPC-H LINEITEM in its
// streaming form needs 10 columns; 12 leaves headroom.
const MaxCols = 12

// Tuple is one stream record. Columns are fixed-width int64s: monetary
// values are scaled to cents, enumerations (return flags, ship modes)
// are small integer codes, keys are entity IDs. This mirrors how
// row-oriented SPEs lay out hot-path records.
type Tuple struct {
	TS   vtime.Time // event time
	Cols [MaxCols]int64
}

// KeySpec selects the partitioning key of a query input: the column
// indices that form the GROUP BY / equi-join key (e.g. Q2 of Listing 1
// partitions PURCHASES by userID+gemPackID → KeySpec{0, 1}).
type KeySpec []int

// KeyOf folds the spec's columns into a single 64-bit key.
func (ks KeySpec) KeyOf(t *Tuple) uint64 {
	switch len(ks) {
	case 1:
		return uint64(t.Cols[ks[0]])
	case 2:
		return keyspace.CombineKeys(uint64(t.Cols[ks[0]]), uint64(t.Cols[ks[1]]))
	default:
		// Stack buffer: specs are bounded by the schema width, so the
		// variadic fold needs no heap allocation on the hot path.
		var buf [MaxCols]uint64
		cols := buf[:0]
		for _, c := range ks {
			cols = append(cols, uint64(t.Cols[c]))
		}
		return keyspace.CombineKeys(cols...)
	}
}

// keyAt folds the spec's columns of row i of a block — KeyOf without
// gathering the row.
func (ks KeySpec) keyAt(b *TupleBlock, i int) uint64 {
	var k [1]uint64
	ks.KeyOfBlock(b, i, i+1, k[:])
	return k[0]
}

// KeyOfBlock folds the spec's columns for rows [from, to) of a block
// into dst (indexed from 0, len >= to-from). One pass per column lane
// rather than one Tuple gather per row — the columnar counterpart of
// KeyOf used by the router's per-class classification pass.
func (ks KeySpec) KeyOfBlock(b *TupleBlock, from, to int, dst []uint64) {
	switch len(ks) {
	case 1:
		col := b.Col[ks[0]]
		for i := from; i < to; i++ {
			dst[i-from] = uint64(col[i])
		}
	case 2:
		c0, c1 := b.Col[ks[0]], b.Col[ks[1]]
		for i := from; i < to; i++ {
			dst[i-from] = keyspace.CombineKeys(uint64(c0[i]), uint64(c1[i]))
		}
	default:
		var buf [MaxCols]uint64
		for i := from; i < to; i++ {
			cols := buf[:0]
			for _, c := range ks {
				cols = append(cols, uint64(b.Col[c][i]))
			}
			dst[i-from] = keyspace.CombineKeys(cols...)
		}
	}
}

// Equal reports whether two key specs select the same columns in the
// same order — the condition under which two queries' routing decisions
// coincide and the router can serve them from one route class.
func (ks KeySpec) Equal(other KeySpec) bool {
	if len(ks) != len(other) {
		return false
	}
	for i := range ks {
		if ks[i] != other[i] {
			return false
		}
	}
	return true
}

// StreamID identifies a logical stream (PURCHASES, LINEITEM, ...)
// within one engine run.
type StreamID int32

// StreamDef describes a logical stream: its schema width, the wire size
// of one tuple, and the source driving each physical source task.
type StreamDef struct {
	Name string
	// NumCols is the schema width (must be <= MaxCols).
	NumCols int
	// BytesPerTuple is the serialized size of one tuple on the wire.
	BytesPerTuple float64
	// NewSource builds the per-source-task block source; task is the
	// physical source index, so parallel tasks can generate disjoint or
	// identically distributed substreams.
	NewSource func(task int) Source
}

// Source is the block-native generation interface every workload
// source implements: fill rows [from, to) of a columnar block, one
// column lane at a time, in ascending row order. The TS lane is
// pre-filled by the caller. Row-oriented generators are lifted to this
// interface by workload.RowAdapter rather than an engine-internal shim.
type Source interface {
	NextBlock(b *TupleBlock, from, to int)
}

// Generator produces the tuples of one physical source task, one row at
// a time. It is the row-level convenience interface: the engine only
// consumes Source, and workload.RowAdapter turns a Generator into one.
type Generator interface {
	// Next fills t's columns for a tuple with event time ts.
	Next(t *Tuple, ts vtime.Time)
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(t *Tuple, ts vtime.Time)

// Next implements Generator.
func (f GeneratorFunc) Next(t *Tuple, ts vtime.Time) { f(t, ts) }

// TupleBlock is a struct-of-arrays batch of tuples: one timestamp lane,
// one int64 lane per column, and an optional per-row weight lane. It is
// the unit the batched data plane moves — sources fill blocks, the
// router classifies whole blocks per route class, and slots drain them
// with per-block cost metering. Lanes index the same rows; unused
// column lanes stay nil.
//
// The weight lane W is nil for uniformly weighted rows (the common
// case — the block inherits the engine's TupleWeight); it is populated
// where rows carry individual weights, e.g. tuples parked while their
// key group's window state is in flight.
type TupleBlock struct {
	TS  []vtime.Time
	Col [MaxCols][]int64
	W   []float64
}

// Len reports the number of rows in the block.
func (b *TupleBlock) Len() int { return len(b.TS) }

// Resize sets the block to n rows over the first cols column lanes,
// reusing lane capacity. Lane contents are left stale — callers
// overwrite every row. The weight lane is truncated to empty.
func (b *TupleBlock) Resize(n, cols int) {
	if cap(b.TS) < n {
		b.TS = make([]vtime.Time, n)
		for c := 0; c < cols; c++ {
			b.Col[c] = make([]int64, n)
		}
	} else {
		b.TS = b.TS[:n]
		for c := 0; c < cols; c++ {
			if cap(b.Col[c]) < n {
				b.Col[c] = make([]int64, n)
			} else {
				b.Col[c] = b.Col[c][:n]
			}
		}
	}
	for c := cols; c < MaxCols; c++ {
		if b.Col[c] != nil {
			b.Col[c] = b.Col[c][:0]
		}
	}
	b.W = b.W[:0]
}

// AppendRow appends one tuple with weight w over the first cols lanes.
func (b *TupleBlock) AppendRow(t *Tuple, cols int, w float64) {
	b.TS = append(b.TS, t.TS)
	for c := 0; c < cols; c++ {
		b.Col[c] = append(b.Col[c], t.Cols[c])
	}
	b.W = append(b.W, w)
}

// appendRowFrom appends row i of src over its first cols lanes with
// weight w, zero-filling the remaining lanes so rows of streams of
// different widths can share one block.
func (b *TupleBlock) appendRowFrom(src *TupleBlock, i, cols int, w float64) {
	b.TS = append(b.TS, src.TS[i])
	for c := 0; c < MaxCols; c++ {
		var v int64
		if c < cols {
			v = src.Col[c][i]
		}
		b.Col[c] = append(b.Col[c], v)
	}
	b.W = append(b.W, w)
}

// RowTuple gathers row i over the first cols lanes into t; remaining
// columns are zeroed.
func (b *TupleBlock) RowTuple(t *Tuple, i, cols int) {
	*t = Tuple{TS: b.TS[i]}
	for c := 0; c < cols; c++ {
		t.Cols[c] = b.Col[c][i]
	}
}

// BlockFeed is the wall-clock ingest handoff: a per-(stream, task)
// queue of externally produced blocks the router task drains instead of
// synthesizing rows from a rate. Poll returns the next queued block (or
// nil when the queue is empty); Release returns a fully consumed block
// to the producer for recycling. The engine calls both only from the
// single goroutine executing that task's router phase, so a
// single-producer/single-consumer queue satisfies the contract.
//
// Incoming blocks need no TS lane: the router stamps claimed rows with
// event times spread evenly across the current tick — the wall-clock →
// virtual-time translation that lets markers, AQE and checkpointing run
// unmodified over served traffic.
type BlockFeed interface {
	Poll() *TupleBlock
	Release(b *TupleBlock)
}
