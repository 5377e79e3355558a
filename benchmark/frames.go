package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"saspar/internal/engine"
	srt "saspar/internal/runtime"
)

// input is one stream's traffic, generated and wire-encoded during
// set-up so the measured pass only writes bytes: a cycle of frames that
// is replayed for as long as a pass needs, and the per-frame column
// sums the end-of-run check compares the results against.
type input struct {
	stream int
	cols   int
	rows   int       // rows per frame
	frames [][]byte  // the encoded cycle
	sums   [][]int64 // [frame][col] column sums as generated

	// probeOff is the byte offset, within every frame, of row 0 of the
	// probe column; 0 when the stream carries no probes (offset 0 is
	// the row count, never a value).
	probeOff int
}

// frameOffset is the byte offset of (col, row) within an encoded frame
// of the given row count: a u32 row count, then whole column lanes.
func frameOffset(rows, col, row int) int { return 4 + (col*rows+row)*8 }

// encodeInput draws n frames of rows rows from the stream's own source
// (seeded with seed) and encodes them with the serving wire encoder.
func encodeInput(def engine.StreamDef, stream int, seed int64, rows, n int) (*input, error) {
	in := &input{stream: stream, cols: def.NumCols, rows: rows}
	src := def.NewSource(int(seed))
	var blk engine.TupleBlock
	var scratch []byte
	for f := 0; f < n; f++ {
		blk.Resize(rows, def.NumCols)
		src.NextBlock(&blk, 0, rows)
		var buf bytes.Buffer
		buf.Grow(frameOffset(rows, def.NumCols, 0))
		if err := srt.WriteFrame(&buf, &blk, def.NumCols, &scratch); err != nil {
			return nil, fmt.Errorf("encode stream %d frame %d: %w", stream, f, err)
		}
		sums := make([]int64, def.NumCols)
		for c := range sums {
			for _, v := range blk.Col[c][:rows] {
				sums[c] += v
			}
		}
		in.frames = append(in.frames, buf.Bytes())
		in.sums = append(in.sums, sums)
	}
	return in, nil
}

// encodeInputs encodes the cycle of every stream of a workload.
func encodeInputs(spec *serveSpec, seed int64) ([]*input, error) {
	inputs := make([]*input, len(spec.wl.Streams))
	for si, def := range spec.wl.Streams {
		in, err := encodeInput(def, si, seed, spec.frameRows, cycleFrames)
		if err != nil {
			return nil, err
		}
		inputs[si] = in
	}
	return inputs, nil
}

// frame returns the encoded bytes of the i-th frame sent on the stream
// (the cycle repeats), with the probe key of frame i patched in when
// the stream carries probes. The bytes are only valid until the next
// call that lands on the same cycle slot.
func (in *input) frame(i int) []byte {
	f := in.frames[i%len(in.frames)]
	if in.probeOff > 0 {
		patchProbe(f, in.probeOff, probeKey(i))
	}
	return f
}

// probeKey is the unique key row 0 of the i-th frame carries.
func probeKey(i int) uint64 { return probeBase + uint64(i) }

// patchProbe overwrites the value at off in an encoded frame.
func patchProbe(frame []byte, off int, key uint64) {
	binary.LittleEndian.PutUint64(frame[off:off+8], key)
}

// sentSum is the sum of column col over the first n frames sent on the
// stream. Probe patches never touch an aggregated column (newServeRun
// checks), so the generated sums are the sent sums.
func (in *input) sentSum(col, n int) float64 {
	var cycle int64
	for _, s := range in.sums {
		cycle += s[col]
	}
	total := int64(n/len(in.sums)) * cycle
	for f := 0; f < n%len(in.sums); f++ {
		total += in.sums[f][col]
	}
	return float64(total)
}
