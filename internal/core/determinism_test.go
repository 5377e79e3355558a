package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"saspar/internal/checkpoint"
	"saspar/internal/engine"
	"saspar/internal/faults"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/spe"
	"saspar/internal/vtime"
)

// This file is the tentpole's proof: intra-run sharding must be
// unobservable. For every SPE profile, a fixed seed has to produce a
// byte-identical run fingerprint — the JSON core.Report, the full
// control-plane event trace, and the Prometheus metrics dump — at any
// shard count and any parallel worker budget, including a composition
// with a scripted node crash and aligned-barrier checkpointing. The
// fingerprint covers every layer a shard race could corrupt: engine
// metrics folds, optimizer inputs (sampled statistics), AQE phase
// transitions, fault detection and restore accounting.

// detGrid is the shard × budget matrix every scenario is replayed
// over. Budget 0 forces the sequential inline path even at shards=4
// (the degradation every 1-core CI host exercises); budget 4 grants
// real worker goroutines.
var detGrid = []struct{ shards, budget int }{
	{1, 0}, {2, 0}, {4, 0},
	{1, 4}, {2, 4}, {4, 4},
}

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

// runFingerprint runs one scenario at the given shard count, parallel
// budget and generation batch size (0 = engine default) and returns its
// byte fingerprint. Every wall-clock cutoff is replaced by
// deterministic node budgets so the optimizer's decisions cannot depend
// on machine speed or concurrent load.
func runFingerprint(t *testing.T, kind spe.Kind, shards, budget, batch int, withFaults bool) ([]byte, Report) {
	t.Helper()
	parallel.SetBudget(budget)
	defer parallel.SetBudget(-1)

	engCfg := testEngineConfig()
	engCfg.Profile = spe.Profile(kind)
	engCfg.Shards = shards
	engCfg.BatchSize = batch
	engCfg.Seed = 42

	cfg := fastCfg()
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	cfg.Obs = obs.New()
	if withFaults {
		cfg.Checkpoint = checkpoint.Config{Interval: 2 * vtime.Second}
		sc, err := faults.Generate(faults.Config{
			Nodes: engCfg.Nodes, Seed: 7,
			Crashes: 1,
			Start:   6 * vtime.Second, Span: 2 * vtime.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultScenario = sc
	}

	streams, queries := detWorkload()
	s, err := New(engCfg, streams, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Trace() {
		fmt.Fprintln(&buf, ev)
	}
	if err := cfg.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scenario := "plain/" + kind.String()
	if withFaults {
		scenario = "faults/" + kind.String()
	}
	checkGolden(t, scenario, buf.Bytes())
	return buf.Bytes(), rep
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

func TestGoldenTraceDeterminismAcrossShards(t *testing.T) {
	for _, kind := range spe.Kinds() {
		kind := kind
		t.Run(spe.SUT{Kind: kind, Saspar: true}.Name(), func(t *testing.T) {
			base, rep := runFingerprint(t, kind, 1, 0, 0, false)
			if len(base) == 0 {
				t.Fatal("empty fingerprint")
			}
			if rep.Throughput == 0 {
				t.Fatal("scenario processed nothing; the determinism test is vacuous")
			}
			for _, g := range detGrid[1:] {
				got, _ := runFingerprint(t, kind, g.shards, g.budget, 0, false)
				if !bytes.Equal(base, got) {
					t.Fatalf("shards=%d budget=%d diverged from shards=1 budget=0 at %s",
						g.shards, g.budget, diffLine(base, got))
				}
			}
		})
	}
}

func TestGoldenTraceDeterminismUnderFaults(t *testing.T) {
	// The composition scenario: a node crash strikes mid-measurement
	// while aligned-barrier checkpoints run, so the fingerprint also
	// covers marker alignment, checkpoint capture, evacuation and
	// restore under sharded execution.
	base, rep := runFingerprint(t, spe.Flink, 1, 0, 0, true)
	if rep.FaultsInjected == 0 {
		t.Fatal("fault scenario never struck; the composition test is vacuous")
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoint completed; the composition test is vacuous")
	}
	for _, g := range detGrid[1:] {
		got, _ := runFingerprint(t, spe.Flink, g.shards, g.budget, 0, true)
		if !bytes.Equal(base, got) {
			t.Fatalf("shards=%d budget=%d diverged from shards=1 budget=0 at %s",
				g.shards, g.budget, diffLine(base, got))
		}
	}
}

// batchGrid is the batch × shard matrix the columnar data plane is
// replayed over, against a batch=1 (strictly tuple-at-a-time) baseline.
// Shards 4 runs with a real worker budget so batching composes with
// parallel execution, not just with the inline path.
var batchGrid = []struct{ batch, shards, budget int }{
	{7, 1, 0}, {64, 1, 0},
	{7, 4, 4}, {64, 4, 4},
	{1, 4, 4}, // batching off, sharding on: isolates the axes
}

func TestGoldenTraceDeterminismAcrossBatchSizes(t *testing.T) {
	// The generation batch size is an execution blocking factor of the
	// columnar data plane, never an observable: a block boundary may not
	// change one byte of the report, trace or metrics dump at any batch
	// size, under any sharding.
	for _, kind := range spe.Kinds() {
		kind := kind
		t.Run(spe.SUT{Kind: kind, Saspar: true}.Name(), func(t *testing.T) {
			base, rep := runFingerprint(t, kind, 1, 0, 1, false)
			if rep.Throughput == 0 {
				t.Fatal("scenario processed nothing; the batch-axis test is vacuous")
			}
			for _, g := range batchGrid {
				got, _ := runFingerprint(t, kind, g.shards, g.budget, g.batch, false)
				if !bytes.Equal(base, got) {
					t.Fatalf("batch=%d shards=%d budget=%d diverged from batch=1 shards=1 at %s",
						g.batch, g.shards, g.budget, diffLine(base, got))
				}
			}
		})
	}
}

func TestGoldenTraceDeterminismAcrossBatchSizesUnderFaults(t *testing.T) {
	// Batching composed with the crash + checkpoint scenario: block
	// boundaries may not shift marker alignment or crash-destruction
	// accounting.
	base, rep := runFingerprint(t, spe.Flink, 1, 0, 1, true)
	if rep.FaultsInjected == 0 || rep.Checkpoints == 0 {
		t.Fatal("composition scenario vacuous")
	}
	for _, g := range batchGrid {
		got, _ := runFingerprint(t, spe.Flink, g.shards, g.budget, g.batch, true)
		if !bytes.Equal(base, got) {
			t.Fatalf("batch=%d shards=%d budget=%d diverged from batch=1 shards=1 at %s",
				g.batch, g.shards, g.budget, diffLine(base, got))
		}
	}
}
