package core

import (
	"reflect"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

// faultEngineConfig hosts sources on nodes 0 and 1 only, leaving node 3
// with nothing but partition slots — the clean crash target.
func faultEngineConfig() engine.Config {
	cfg := testEngineConfig()
	cfg.SourceTasks = 2
	cfg.ExactWindows = false
	return cfg
}

// recoveryCfg builds a control-loop config with fault recovery armed
// and every wall-clock cutoff replaced by deterministic budgets.
func recoveryCfg(sc scenario.Script) Config {
	cfg := DefaultConfig()
	cfg.TriggerInterval = 30 * vtime.Second // keep routine triggers out of the way
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	cfg.Script = sc
	return cfg
}

func TestCrashRecoveryEvacuatesAndRestoresThroughput(t *testing.T) {
	sc := scenario.Crash(3, vtime.Time(5*vtime.Second))
	s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), recoveryCfg(sc))
	if err != nil {
		t.Fatal(err)
	}
	e := s.Engine()
	e.SetStreamRate(0, 20000)

	s.Run(4 * vtime.Second)
	preRate := e.SourceAcceptedRate()
	if snap := s.Snapshot(); snap.FaultsDetected != 0 || snap.LostBytes != 0 {
		t.Fatalf("fault state before the fault: %+v", snap)
	}

	// Cross the crash and give detection + evacuation room to finish.
	s.Run(8 * vtime.Second)
	snap := s.Snapshot()
	if snap.FaultsInjected != 1 || snap.FaultsDetected == 0 {
		t.Fatalf("crash not injected/detected: injected=%d detected=%d",
			snap.FaultsInjected, snap.FaultsDetected)
	}
	if snap.Recoveries == 0 || snap.RecoveryPending {
		t.Fatalf("recovery never completed: recoveries=%d pending=%v applied=%d phase=%s",
			snap.Recoveries, snap.RecoveryPending, snap.Applied, snap.AQEPhase)
	}
	if snap.Applied == 0 {
		t.Fatal("recovery completed without any AQE reconfiguration")
	}
	if snap.LostBytes == 0 {
		t.Fatal("node crash destroyed no bytes")
	}
	// Post-recovery, no active query may keep a group on node 3.
	for qi := 0; qi < e.NumQueries(); qi++ {
		a := e.Assignment(qi)
		for g := 0; g < a.NumGroups(); g++ {
			if p := a.Partition(keyspace.GroupID(g)); e.PartitionNode(int(p)) == 3 {
				t.Fatalf("query %d group %d still on dead node's partition %d", qi, g, p)
			}
		}
	}

	// Sustained throughput must climb back to within 10% of the
	// pre-fault level once the evacuation settles.
	s.Run(2 * vtime.Second) // drain in-flight pre-evacuation traffic
	e.Metrics().StartMeasurement(e.Clock())
	s.Run(3 * vtime.Second)
	e.Metrics().StopMeasurement(e.Clock())
	if post := e.Metrics().OverallThroughput(); post < 0.9*preRate {
		t.Fatalf("post-recovery throughput %v below 90%% of pre-fault rate %v", post, preRate)
	}
	lostBefore := s.Snapshot().LostBytes
	s.Run(2 * vtime.Second)
	if grew := s.Snapshot().LostBytes - lostBefore; grew != 0 {
		t.Fatalf("still losing bytes after recovery: +%v", grew)
	}
}

func TestTransientFaultHealsWithoutEvacuation(t *testing.T) {
	// A short straggler that expires before any evacuation can land:
	// detection fires, then the health check sees the cluster whole
	// again and recovery closes without moving anything.
	sc := scenario.Script{{
		Kind: scenario.KindStraggler, Node: 2,
		At: vtime.Time(2 * vtime.Second), Duration: 600 * vtime.Millisecond, Factor: 0.25,
	}}
	cfg := recoveryCfg(sc)
	cfg.RecoveryBackoff = 2 * vtime.Second // first retry lands after the fault expires
	s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 10000)
	s.Run(6 * vtime.Second)
	snap := s.Snapshot()
	if snap.FaultsDetected == 0 {
		t.Fatal("straggler never detected")
	}
	if snap.Recoveries == 0 || snap.RecoveryPending {
		t.Fatalf("transient fault never cleared: recoveries=%d pending=%v",
			snap.Recoveries, snap.RecoveryPending)
	}
	if snap.LostBytes != 0 {
		t.Fatalf("straggler lost %v bytes", snap.LostBytes)
	}
}

func TestVanillaSystemInjectsButNeverRecovers(t *testing.T) {
	// With the SASPAR layer disabled the scenario still strikes the
	// engine (the baseline suffers the fault) but nothing detects or
	// evacuates — the degraded state persists.
	sc := scenario.Crash(3, vtime.Time(2*vtime.Second))
	cfg := recoveryCfg(sc)
	cfg.Enabled = false
	s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 10000)
	s.Run(6 * vtime.Second)
	snap := s.Snapshot()
	if snap.FaultsInjected != 1 {
		t.Fatalf("scenario not replayed on the vanilla system: injected=%d", snap.FaultsInjected)
	}
	if snap.FaultsDetected != 0 || snap.Recoveries != 0 {
		t.Fatalf("vanilla system ran recovery: detected=%d recoveries=%d",
			snap.FaultsDetected, snap.Recoveries)
	}
	if !s.Engine().NodeDown(3) {
		t.Fatal("crash not applied")
	}
	if snap.LostBytes == 0 {
		t.Fatal("unrecovered crash lost no bytes")
	}
}

func TestFaultTraceIsDeterministic(t *testing.T) {
	// Fixed seed, two full runs, bit-identical event traces — the
	// reproducibility contract of the recovery experiments.
	run := func() []obs.Event {
		sc, err := scenario.Generate(scenario.Config{
			Nodes: 4, Seed: 7,
			Crashes: 1, Brownouts: 1, Stragglers: 1,
			Start: 2 * vtime.Second, Span: 4 * vtime.Second,
			MinDuration: vtime.Second, MaxDuration: 2 * vtime.Second,
			MinFactor: 0.2, MaxFactor: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := recoveryCfg(sc)
		cfg.Obs = obs.New()
		s, err := New(faultEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Engine().SetStreamRate(0, 15000)
		s.Run(12 * vtime.Second)
		return s.Trace()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events traced")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces diverge across identically-seeded runs: %d vs %d events", len(a), len(b))
	}
	// The trace must carry the full fault lifecycle.
	kinds := map[obs.EventKind]int{}
	for _, ev := range a {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvFaultInjected, obs.EvFaultDetected, obs.EvFaultRecovered} {
		if kinds[k] == 0 {
			t.Fatalf("no %s events in trace (have %v)", k, kinds)
		}
	}
}
