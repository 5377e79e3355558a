package core

import (
	"testing"

	"saspar/internal/checkpoint"
	"saspar/internal/engine"
	"saspar/internal/enginetest"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// Elastic scale-out/in joins the golden-trace determinism contract:
// a run whose cluster grows and shrinks mid-flight — join decisions,
// post-join rebalances, AQE-mediated drains, retirements — must still
// produce a byte-identical fingerprint in every workerGrid cell
// (determinism_test.go). Elasticity touches every layer a worker race
// could corrupt
// (node admission order, lease movement, drain quiescence detection,
// checkpoint-residual restores), so it gets its own scenario rather
// than riding the static-cluster ones.

// runElasticFingerprint replays testdata/elastic.script: a 6× flash
// crowd for 12 virtual seconds (forcing joins and a rebalance onto the
// new capacity), then the crowd leaves and the loop drains back to the
// floor. withCrash replays elastic-crash.script instead, which also
// strikes a node late in the flash — after the autoscaler has admitted
// capacity — with aligned-barrier checkpoints armed, composing join,
// recovery and restore in one run.
func runElasticFingerprint(t *testing.T, cell enginetest.WorkerCell, withCrash bool) ([]byte, Report) {
	t.Helper()
	parallel.SetBudget(cell.Budget)
	defer parallel.SetBudget(-1)

	engCfg := elasticEngineConfig()
	engCfg.Seed = 42

	cfg := elasticCoreConfig()
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	cfg.Obs = obs.New()
	name := "elastic"
	if withCrash {
		name = "elastic-crash"
		// Interval 4s: alignment under the saturated flash outlives a 2s
		// cadence, which would keep a barrier permanently in flight and
		// starve the (correctly conservative) elastic quiescence gate.
		cfg.Checkpoint = checkpoint.Config{Interval: 4 * vtime.Second}
	}
	cfg.Script = loadScript(t, name)

	s, err := New(engCfg, []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().PinTickWorkers(cell.Pinned)
	if err := s.Run(52 * vtime.Second); err != nil {
		t.Fatal(err)
	}

	rep := s.Snapshot()
	fp := fingerprint(t, s)
	checkGolden(t, name, fp)
	return fp, rep
}

func TestGoldenTraceDeterminismUnderElasticity(t *testing.T) {
	base, rep := runElasticFingerprint(t, workerGrid[0], false)
	// The schedule must actually exercise both directions, or the
	// determinism claim is vacuous.
	if rep.ElasticJoins == 0 {
		t.Fatal("elastic scenario never joined; the determinism test is vacuous")
	}
	if rep.ElasticDrains == 0 {
		t.Fatal("elastic scenario never drained; the determinism test is vacuous")
	}
	assertGridMatches(t, base, func(g enginetest.WorkerCell) []byte {
		got, _ := runElasticFingerprint(t, g, false)
		return got
	})
}

func TestGoldenTraceDeterminismUnderElasticityWithCrash(t *testing.T) {
	// The composition scenario: a node crash strikes during the flash
	// crowd while the autoscaler is admitting capacity and checkpoints
	// run, so the fingerprint covers recovery preempting elasticity and
	// the checkpoint-residual restore path under parallel ticks.
	base, rep := runElasticFingerprint(t, workerGrid[0], true)
	if rep.FaultsInjected == 0 {
		t.Fatal("crash never struck; the composition test is vacuous")
	}
	if rep.ElasticJoins == 0 {
		t.Fatal("no join composed with the crash; the composition test is vacuous")
	}
	assertGridMatches(t, base, func(g enginetest.WorkerCell) []byte {
		got, _ := runElasticFingerprint(t, g, true)
		return got
	})
}
