package core

import (
	"testing"

	"saspar/internal/cluster"
	"saspar/internal/elastic"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// elasticTestConfig: a tiny NIC so a modest rate genuinely overloads
// the cluster, plus aggressive policy thresholds so the loop acts
// within seconds of virtual time.
func elasticEngineConfig() engine.Config {
	cfg := testEngineConfig()
	cfg.NodeConfig.NICBytesPerSec = 1 << 20 // 1 MiB/s: easy to saturate
	return cfg
}

func elasticCoreConfig() Config {
	cfg := fastCfg()
	cfg.Elastic = &ElasticConfig{
		Policy:       elastic.DefaultConfig(4, 6),
		PollInterval: 200 * vtime.Millisecond,
	}
	return cfg
}

// A flash crowd must grow the cluster: sustained overload produces join
// decisions, the joined nodes enter the routing domain, and a
// mandatory rebalance moves key groups onto them.
func TestElasticFlashCrowdGrowsCluster(t *testing.T) {
	cfg := elasticCoreConfig()
	cfg.Obs = obs.New()
	s, err := New(elasticEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 60000) // 6 MB/s offered against 1 MiB/s NICs
	if err := s.Run(20 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.ElasticJoins == 0 {
		t.Fatal("no nodes joined under a sustained 6× overload")
	}
	if snap.LiveNodes <= 4 {
		t.Fatalf("LiveNodes = %d after %d joins", snap.LiveNodes, snap.ElasticJoins)
	}
	if snap.LiveNodes > 6 {
		t.Fatalf("LiveNodes = %d exceeds the policy's MaxNodes", snap.LiveNodes)
	}
	// The rebalance must actually push key groups onto joined capacity.
	groups := 0
	for n := 4; n < s.Engine().Config().Nodes; n++ {
		groups += s.Engine().GroupsOnNode(cluster.NodeID(n))
	}
	if groups == 0 {
		t.Fatal("joined nodes own no key groups: rebalance never landed")
	}
	// Trace must carry the elastic event kinds.
	var decisions, joins int
	for _, ev := range s.Trace() {
		switch ev.Kind {
		case obs.EvElasticDecision:
			decisions++
		case obs.EvElasticJoin:
			joins++
		}
	}
	if decisions == 0 || joins == 0 {
		t.Fatalf("trace: %d decision events, %d join events", decisions, joins)
	}
	if joins != snap.ElasticJoins {
		t.Fatalf("trace join events %d != report joins %d", joins, snap.ElasticJoins)
	}
}

// When the crowd leaves, the cluster must shrink back — and the drains
// must lose nothing: no crashed nodes means every byte of window state
// moved through AQE before retirement.
func TestElasticDrainShrinksWithZeroLoss(t *testing.T) {
	cfg := elasticCoreConfig()
	cfg.Obs = obs.New()
	s, err := New(elasticEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	eng.SetStreamRate(0, 60000)
	if err := s.Run(12 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	if joins, _, _ := s.ElasticState(); joins == 0 {
		t.Fatal("no joins during the flash crowd; nothing to drain")
	}
	eng.SetStreamRate(0, 200) // crowd gone
	if err := s.Run(40 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.ElasticDrains == 0 {
		t.Fatal("no drains after the load fell away")
	}
	if snap.LiveNodes != 4 {
		t.Fatalf("LiveNodes = %d, want back at the 4-node floor", snap.LiveNodes)
	}
	// Zero-loss drain: nothing was destroyed anywhere — engine routing,
	// network queues, or state cells.
	if snap.LostBytes != 0 {
		t.Fatalf("drains lost %v bytes", snap.LostBytes)
	}
	if cells := eng.DrainDestroyedState(); len(cells) != 0 {
		t.Fatalf("drains destroyed %d state cells", len(cells))
	}
	var starts, dones int
	for _, ev := range s.Trace() {
		switch ev.Kind {
		case obs.EvElasticDrainStart:
			starts++
		case obs.EvElasticDrainDone:
			dones++
		}
	}
	if dones != snap.ElasticDrains || starts < dones {
		t.Fatalf("trace: %d drain starts, %d drain dones, report %d", starts, dones, snap.ElasticDrains)
	}
}

// The vanilla baseline scales too — its rebalance is the deterministic
// modulo spread instead of an optimizer solve.
func TestElasticVanillaBaselineScales(t *testing.T) {
	cfg := elasticCoreConfig()
	cfg.Enabled = false
	s, err := New(elasticEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 60000)
	if err := s.Run(12 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.ElasticJoins == 0 {
		t.Fatal("vanilla baseline never joined under overload")
	}
	if snap.Triggers != 0 {
		t.Fatalf("vanilla baseline triggered the optimizer %d times", snap.Triggers)
	}
	groups := 0
	for n := 4; n < s.Engine().Config().Nodes; n++ {
		groups += s.Engine().GroupsOnNode(cluster.NodeID(n))
	}
	if groups == 0 {
		t.Fatal("modulo spread moved no key groups onto joined nodes")
	}
}

func TestElasticConfigValidation(t *testing.T) {
	cfg := elasticCoreConfig()
	cfg.Elastic.Policy.MaxNodes = 0 // below MinNodes
	if _, err := New(elasticEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg); err == nil {
		t.Fatal("invalid elastic policy accepted")
	}
}
