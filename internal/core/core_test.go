package core

import (
	"math"
	"strings"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/optimizer"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// skewedStream produces Zipf-ish keys: a handful of hot entities carry
// most of the volume, so the initial ring assignment is load-imbalanced
// and the optimizer has something to fix.
func skewedStream() engine.StreamDef {
	return engine.StreamDef{
		Name: "purchases", NumCols: 3, BytesPerTuple: 100,
		NewSource: func(task int) engine.Source {
			i := int64(task) * 7919
			return workload.RowAdapter(engine.GeneratorFunc(func(t *engine.Tuple, ts vtime.Time) {
				i++
				// ~70% of tuples hit 4 hot keys; the rest spread wide.
				if i%10 < 7 {
					t.Cols[0] = i % 4
				} else {
					t.Cols[0] = 4 + i%60
				}
				t.Cols[1] = t.Cols[0] // correlated second key column
				t.Cols[2] = 1
			}))
		},
	}
}

func testEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Nodes = 4
	cfg.NumPartitions = 8
	cfg.NumGroups = 16
	cfg.SourceTasks = 4
	cfg.Tick = 100 * vtime.Millisecond
	return cfg
}

func sameKeyQueries(n int) []engine.QuerySpec {
	var qs []engine.QuerySpec
	for i := 0; i < n; i++ {
		qs = append(qs, engine.QuerySpec{
			ID: "q", Kind: engine.OpAggregate,
			Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
			Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
			AggCol: 2,
		})
	}
	return qs
}

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.TriggerInterval = 2 * vtime.Second
	cfg.Opt = optimizer.Options{Timeout: 200 * 1e6, MaxNodes: 20000} // 200ms
	return cfg
}

func TestVanillaSystemNeverTriggers(t *testing.T) {
	cfg := fastCfg()
	cfg.Enabled = false
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 10000)
	s.Run(6 * vtime.Second)
	if snap := s.Snapshot(); snap.Triggers != 0 {
		t.Fatalf("vanilla system triggered %d times", snap.Triggers)
	}
	if s.Engine().Network().Stats().BytesNet == 0 {
		t.Fatal("vanilla system moved no data")
	}
}

func TestSasparTriggersAndOptimizes(t *testing.T) {
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	s.Run(10 * vtime.Second)
	snap := s.Snapshot()
	if snap.Triggers == 0 {
		t.Fatal("SASPAR never triggered")
	}
	if snap.Optimizations == 0 || s.LastOptimization() == nil {
		t.Fatal("no optimizer results recorded")
	}
	// Every optimization either applied a plan or was consciously
	// skipped; nothing may be lost.
	if snap.Applied+snap.SkippedPlans+boolToInt(s.Controller().Busy()) < snap.Optimizations {
		t.Fatalf("plans lost: applied=%d skipped=%d busy=%v results=%d",
			snap.Applied, snap.SkippedPlans, s.Controller().Busy(), snap.Optimizations)
	}
}

func TestZeroQueryReportPathStaysFinite(t *testing.T) {
	// Regression: buildRequest divided its latency coefficients without
	// guards, so a degenerate snapshot (every query retired, or a
	// zero-sample window) could push NaN into the exported request and
	// from there into core.Report. With nothing left to optimize the
	// request must be nil, triggers must no-op, and every Report float
	// must stay finite.
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 5000)
	s.Run(2 * vtime.Second)
	// A trigger may fire on the run's final tick; removal is refused
	// while its markers are in flight, so tick until the
	// reconfiguration drains.
	rmErr := s.RemoveQuery(0)
	for i := 0; i < 50 && rmErr != nil; i++ {
		s.Run(100 * vtime.Millisecond)
		rmErr = s.RemoveQuery(0)
	}
	if rmErr != nil {
		t.Fatal(rmErr)
	}
	req, reps := ExportRequest(s)
	if req != nil || len(reps) != 0 {
		t.Fatalf("zero-query request = %+v (reps %v), want nil", req, reps)
	}
	s.TriggerNow() // must not panic or record a garbage round
	snap := s.Snapshot()
	for name, v := range map[string]float64{
		"Throughput":   snap.Throughput,
		"LastCurObj":   snap.LastCurObj,
		"LastNewObj":   snap.LastNewObj,
		"LastMoveCost": snap.LastMoveCost,
		"SharingRatio": snap.SharingRatio,
		"Reshuffled":   snap.Reshuffled,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Report.%s = %v after zero-query trigger", name, v)
		}
	}
	// Zero-sample path: a fresh system that never ran or measured.
	s2, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	snap2 := s2.Snapshot()
	if math.IsNaN(snap2.Throughput) || math.IsNaN(float64(snap2.AvgLatency)) {
		t.Fatalf("zero-sample snapshot carries NaN: %+v", snap2)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSharedLayerCutsNetworkBytes(t *testing.T) {
	// Four identical-key queries: SASPAR's shared partitioner should
	// move ~1/4 of the vanilla bytes in steady state (the one-time
	// state-migration bytes of early reconfigurations are excluded by
	// measuring a post-warm-up delta).
	run := func(enabled bool) float64 {
		cfg := fastCfg()
		cfg.Enabled = enabled
		s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Engine().SetStreamRate(0, 20000)
		s.Run(8 * vtime.Second) // warm-up: reconfigurations settle
		before := s.Engine().Network().Stats().BytesNet
		s.Run(6 * vtime.Second)
		return s.Engine().Network().Stats().BytesNet - before
	}
	vanilla := run(false)
	saspar := run(true)
	ratio := vanilla / saspar
	if ratio < 3 || ratio > 5 {
		t.Fatalf("vanilla/SASPAR steady-state byte ratio %.2f, want ~4", ratio)
	}
}

func TestSkewTriggersLiveReconfiguration(t *testing.T) {
	// Skewed cardinalities leave the ring assignment imbalanced; the
	// optimizer must move key groups live at least once.
	cfg := fastCfg()
	cfg.MinImprovement = 0.001
	cfg.PlanHorizon = 100 // stationary skew: the plan lives long, so moving pays
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 50000)
	s.Engine().Metrics().StartMeasurement(0)
	s.Run(15 * vtime.Second)
	s.Engine().Metrics().StopMeasurement(s.Engine().Clock())
	if snap := s.Snapshot(); snap.Applied == 0 && !s.Controller().Busy() {
		t.Fatalf("no reconfiguration despite skew (triggers=%d skipped=%d)", snap.Triggers, snap.SkippedPlans)
	}
	if s.Controller().Applied() > 0 && s.Engine().Metrics().Reshuffled() == 0 {
		t.Fatal("reconfiguration applied but no tuples reshuffled")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := fastCfg()
	bad.SampleEvery = 0
	if _, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), bad); err == nil {
		t.Fatal("SampleEvery=0 accepted for enabled system")
	}
	bad = fastCfg()
	bad.TriggerInterval = 0
	if _, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), bad); err == nil {
		t.Fatal("TriggerInterval=0 accepted for enabled system")
	}
}

func TestSystemRunRejectsNonPositiveDuration(t *testing.T) {
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(1), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []vtime.Duration{0, -vtime.Second} {
		err := s.Run(d)
		if err == nil {
			t.Fatalf("Run(%v) accepted", d)
		}
		if !strings.Contains(err.Error(), "duration must be positive") {
			t.Fatalf("Run(%v) error %q does not describe the violation", d, err)
		}
	}
	if c := s.Engine().Clock(); c != 0 {
		t.Fatalf("rejected Run still advanced the clock to %v", c)
	}
}

func TestJoinQuerySystem(t *testing.T) {
	streams := []engine.StreamDef{skewedStream(), skewedStream()}
	q := engine.QuerySpec{
		ID: "join", Kind: engine.OpJoin,
		Inputs: []engine.Input{
			{Stream: 0, Key: engine.KeySpec{0}},
			{Stream: 1, Key: engine.KeySpec{0}},
		},
		Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
	}
	s, err := New(testEngineConfig(), streams, []engine.QuerySpec{q}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 10000)
	s.Engine().SetStreamRate(1, 10000)
	s.Run(6 * vtime.Second)
	if s.Snapshot().Triggers == 0 {
		t.Fatal("join system never triggered")
	}
}

func TestDriftTriggerFiresEarly(t *testing.T) {
	// A drifting hot set should trip the drift trigger between periodic
	// intervals.
	drifting := engine.StreamDef{
		Name: "d", NumCols: 3, BytesPerTuple: 100,
		NewSource: func(task int) engine.Source {
			i := int64(task) * 31
			return workload.RowAdapter(engine.GeneratorFunc(func(tu *engine.Tuple, ts vtime.Time) {
				i++
				epoch := int64(ts) / int64(2*vtime.Second)
				if i%10 < 7 {
					tu.Cols[0] = (i%4 + epoch*13) % 64
				} else {
					tu.Cols[0] = i % 64
				}
				tu.Cols[1] = tu.Cols[0]
				tu.Cols[2] = 1
			}))
		},
	}
	cfg := fastCfg()
	cfg.TriggerInterval = 20 * vtime.Second // periodic alone would fire once
	cfg.DriftTrigger = 0.5
	s, err := New(testEngineConfig(), []engine.StreamDef{drifting}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	s.Run(21 * vtime.Second)
	if snap := s.Snapshot(); snap.DriftTriggers == 0 {
		t.Fatalf("drift trigger never fired (triggers=%d)", snap.Triggers)
	}
}

func TestSharingRatioMeasured(t *testing.T) {
	// Four identical queries under the shared partitioner: every tuple
	// serves all four queries with one copy, so the measured sharing
	// ratio approaches 4.
	cfg := fastCfg()
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	m := s.Engine().Metrics()
	m.StartMeasurement(0)
	s.Run(5 * vtime.Second)
	m.StopMeasurement(s.Engine().Clock())
	if r := m.SharingRatio(); r < 3.9 || r > 4.1 {
		t.Fatalf("sharing ratio %v, want ~4", r)
	}
}
