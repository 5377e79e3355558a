// Package workloadtest holds fixtures shared by the workload packages'
// test suites. Only _test.go files import it.
package workloadtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"saspar/internal/engine"
	"saspar/internal/vtime"
)

// digestBlock is the block size of StreamDigests' block path: not a
// divisor of the usual row counts, so the last block is ragged.
const digestBlock = 1024 + 24

// StreamDigests hashes the first rows rows of def's source for task with
// sha256, once through NextBlock and once through Next on a second
// source of the same task. Row r is stamped r milliseconds; every column
// is hashed as a little-endian int64, row-major. A generator honouring
// the engine.Source contract returns two equal digests.
func StreamDigests(def engine.StreamDef, task, rows int) (block, row string) {
	stamp := func(r int) vtime.Time { return vtime.Time(int64(r) * int64(vtime.Millisecond)) }
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }

	h := sha256.New()
	src := def.NewSource(task)
	var blk engine.TupleBlock
	for lo := 0; lo < rows; lo += digestBlock {
		m := min(digestBlock, rows-lo)
		blk.Resize(m, def.NumCols)
		for r := range blk.TS {
			blk.TS[r] = stamp(lo + r)
		}
		src.NextBlock(&blk, 0, m)
		buf = buf[:0]
		for r := 0; r < m; r++ {
			for c := 0; c < def.NumCols; c++ {
				put(blk.Col[c][r])
			}
		}
		h.Write(buf)
	}
	block = hex.EncodeToString(h.Sum(nil))

	h.Reset()
	g := def.NewSource(task).(engine.Generator)
	var tu engine.Tuple
	for r := 0; r < rows; r++ {
		g.Next(&tu, stamp(r))
		buf = buf[:0]
		for c := 0; c < def.NumCols; c++ {
			put(tu.Cols[c])
		}
		h.Write(buf)
	}
	return block, hex.EncodeToString(h.Sum(nil))
}
