package core

import (
	"bytes"
	"fmt"
	"testing"

	"saspar/internal/checkpoint"
	"saspar/internal/engine"
	"saspar/internal/enginetest"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/spe"
	"saspar/internal/vtime"
)

// This file is the proof that intra-run parallelism is unobservable.
// For every SPE profile, a fixed seed has to produce a byte-identical
// run fingerprint — the JSON core.Report, the full control-plane event
// trace, and the Prometheus metrics dump — at any tick worker count and
// any parallel worker budget, including a composition with a scripted
// node crash and aligned-barrier checkpointing. The fingerprint covers
// every layer a worker race could corrupt: engine metrics folds,
// optimizer inputs (sampled statistics), AQE phase transitions, fault
// detection and restore accounting. That is also the licence for the
// engine to size its workers from a wall-clock measurement.

// workerGrid is the pinned-workers × budget matrix every scenario in
// this package is replayed over; cell 0 is the sequential reference the
// others are compared with.
var workerGrid = enginetest.WorkerGrid()

// detWorkload is a deterministic two-stream mix: two identical keyed
// aggregations (the sharing pair) plus a join, so the fingerprint
// exercises aggregation state, join buffers and the reshuffle path.
func detWorkload() ([]engine.StreamDef, []engine.QuerySpec) {
	streams := []engine.StreamDef{skewedStream(), skewedStream()}
	qs := sameKeyQueries(2)
	qs = append(qs, engine.QuerySpec{
		ID: "dj", Kind: engine.OpJoin,
		Inputs: []engine.Input{
			{Stream: 0, Key: engine.KeySpec{0}},
			{Stream: 1, Key: engine.KeySpec{0}},
		},
		Window:     engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
		JoinFanout: 0.25,
	})
	return streams, qs
}

// runFingerprint runs one scenario under the given worker cell and
// generation batch size (0 = engine default) and returns its byte
// fingerprint. Every wall-clock cutoff is replaced by
// deterministic node budgets so the optimizer's decisions cannot depend
// on machine speed or concurrent load.
func runFingerprint(t *testing.T, kind spe.Kind, cell enginetest.WorkerCell, batch int, withFaults bool) ([]byte, Report) {
	t.Helper()
	parallel.SetBudget(cell.Budget)
	defer parallel.SetBudget(-1)

	engCfg := testEngineConfig()
	engCfg.Profile = spe.Profile(kind)
	engCfg.BatchSize = batch
	engCfg.Seed = 42

	cfg := fastCfg()
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	cfg.Obs = obs.New()
	if withFaults {
		cfg.Checkpoint = checkpoint.Config{Interval: 2 * vtime.Second}
		cfg.Script = loadScript(t, "faults")
	}

	streams, queries := detWorkload()
	s, err := New(engCfg, streams, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().PinTickWorkers(cell.Pinned)
	s.Engine().SetStreamRate(0, 20000)
	s.Engine().SetStreamRate(1, 20000)

	if err := s.Run(4 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	m := s.Engine().Metrics()
	m.StartMeasurement(s.Engine().Clock())
	if err := s.Run(10 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	m.StopMeasurement(s.Engine().Clock())

	rep := s.Snapshot()
	fp := fingerprint(t, s)
	scenario := "plain/" + kind.String()
	if withFaults {
		scenario = "faults/" + kind.String()
	}
	checkGolden(t, scenario, fp)
	return fp, rep
}

// diffLine locates the first line two fingerprints disagree on, for a
// failure message that names the diverging series instead of dumping
// kilobytes.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// assertGridMatches replays run under every workerGrid cell but the
// reference and fails on the first fingerprint that differs from base.
func assertGridMatches(t *testing.T, base []byte, run func(enginetest.WorkerCell) []byte) {
	t.Helper()
	for _, g := range workerGrid[1:] {
		if got := run(g); !bytes.Equal(base, got) {
			t.Fatalf("%+v diverged from %+v at %s", g, workerGrid[0], diffLine(base, got))
		}
	}
}

func TestGoldenTraceDeterminismAcrossWorkers(t *testing.T) {
	for _, kind := range spe.Kinds() {
		kind := kind
		t.Run(spe.SUT{Kind: kind, Saspar: true}.Name(), func(t *testing.T) {
			base, rep := runFingerprint(t, kind, workerGrid[0], 0, false)
			if len(base) == 0 {
				t.Fatal("empty fingerprint")
			}
			if rep.Throughput == 0 {
				t.Fatal("scenario processed nothing; the determinism test is vacuous")
			}
			assertGridMatches(t, base, func(g enginetest.WorkerCell) []byte {
				got, _ := runFingerprint(t, kind, g, 0, false)
				return got
			})
		})
	}
}

func TestGoldenTraceDeterminismUnderFaults(t *testing.T) {
	// The composition scenario: a node crash strikes mid-measurement
	// while aligned-barrier checkpoints run, so the fingerprint also
	// covers marker alignment, checkpoint capture, evacuation and
	// restore under parallel ticks.
	base, rep := runFingerprint(t, spe.Flink, workerGrid[0], 0, true)
	if rep.FaultsInjected == 0 {
		t.Fatal("fault scenario never struck; the composition test is vacuous")
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoint completed; the composition test is vacuous")
	}
	assertGridMatches(t, base, func(g enginetest.WorkerCell) []byte {
		got, _ := runFingerprint(t, spe.Flink, g, 0, true)
		return got
	})
}

// batchSizes are the generation block sizes the columnar data plane is
// replayed at, each under every workerGrid cell so batching composes
// with parallel execution and not just with the inline path. The
// baseline is batch=1 (strictly tuple-at-a-time) on workerGrid[0].
var batchSizes = []int{1, 7, 64}

// eachBatchCell calls f for every (batch size, worker cell) pair except
// the baseline itself.
func eachBatchCell(f func(batch int, cell enginetest.WorkerCell)) {
	for _, batch := range batchSizes {
		for i, cell := range workerGrid {
			if batch != 1 || i != 0 {
				f(batch, cell)
			}
		}
	}
}

func TestGoldenTraceDeterminismAcrossBatchSizes(t *testing.T) {
	// The generation batch size is an execution blocking factor of the
	// columnar data plane, never an observable: a block boundary may not
	// change one byte of the report, trace or metrics dump at any batch
	// size, at any worker count.
	for _, kind := range spe.Kinds() {
		kind := kind
		t.Run(spe.SUT{Kind: kind, Saspar: true}.Name(), func(t *testing.T) {
			base, rep := runFingerprint(t, kind, workerGrid[0], 1, false)
			if rep.Throughput == 0 {
				t.Fatal("scenario processed nothing; the batch-axis test is vacuous")
			}
			eachBatchCell(func(batch int, g enginetest.WorkerCell) {
				got, _ := runFingerprint(t, kind, g, batch, false)
				if !bytes.Equal(base, got) {
					t.Fatalf("batch=%d %+v diverged from batch=1 %+v at %s",
						batch, g, workerGrid[0], diffLine(base, got))
				}
			})
		})
	}
}

func TestGoldenTraceDeterminismAcrossBatchSizesUnderFaults(t *testing.T) {
	// Batching composed with the crash + checkpoint scenario: block
	// boundaries may not shift marker alignment or crash-destruction
	// accounting.
	base, rep := runFingerprint(t, spe.Flink, workerGrid[0], 1, true)
	if rep.FaultsInjected == 0 || rep.Checkpoints == 0 {
		t.Fatal("composition scenario vacuous")
	}
	eachBatchCell(func(batch int, g enginetest.WorkerCell) {
		got, _ := runFingerprint(t, spe.Flink, g, batch, true)
		if !bytes.Equal(base, got) {
			t.Fatalf("batch=%d %+v diverged from batch=1 %+v at %s",
				batch, g, workerGrid[0], diffLine(base, got))
		}
	})
}
