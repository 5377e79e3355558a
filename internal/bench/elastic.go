package bench

import (
	"fmt"
	"io"
	"strings"

	"saspar/internal/core"
	"saspar/internal/elastic"
	"saspar/internal/flashwl"
	"saspar/internal/obs"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// The elastic experiment: a 10× flash crowd against an autoscaled
// cluster, shared partitioning versus the sequential per-query
// baseline. Both arms run the same flash workload, the same policy and
// the same node bounds; they differ only in how the post-join rebalance
// and drain evacuations repartition — one shared solve versus per-query
// spreads. The figure is nodes-versus-time plus the SLO-violation
// account: virtual seconds the cluster spent with backpressure above
// the policy's high-water mark (ingress queues or NICs saturated — the
// operating region where end-to-end latency SLOs are forfeit).

// ElasticRow is one arm of the flash-crowd experiment.
type ElasticRow struct {
	Arm string // "shared" or "sequential"

	Joins, Drains         int
	PeakNodes, FinalNodes int

	// SLOViolationSec counts virtual seconds above the high-water mark;
	// RecoverSec is flash onset → the last violating sample (how long
	// the crowd hurt before capacity caught up).
	SLOViolationSec float64
	RecoverSec      float64

	LostMB float64

	// Nodes is the live-node count sampled once per TimeUnit.
	Nodes []int
}

// Elastic runs both arms, fanned over the run-matrix pool. Cells
// measure virtual-time metrics only, so the solver runs under the
// deterministic budget and output is byte-identical at any worker or
// shard count.
func Elastic(sc Scale) ([]ElasticRow, error) {
	sc.DeterministicOpt = true
	arms := []bool{true, false} // shared, sequential
	return parallel.Map(sc.pool(), len(arms), func(i int) (ElasticRow, error) {
		row, err := elasticCell(sc, arms[i])
		if err != nil {
			return ElasticRow{}, fmt.Errorf("bench: elastic %s arm: %w", row.Arm, err)
		}
		return row, nil
	})
}

// elasticScenario sizes the flash schedule in TimeUnits: calm for 5,
// a 10× crowd for 5, then calm for 15 so scale-in completes on camera.
func elasticScenario(sc Scale) flashwl.Config {
	cfg := flashwl.DefaultConfig()
	cfg.Window = sc.window()
	cfg.NumQueries = 4
	// The flash phase offers ~6 MB/s (64 B/tuple) against the cell's
	// 1 MiB/s links, so the seed cluster genuinely drowns; the calm
	// phases sit comfortably inside the NIC budget.
	cfg.BaseRate = 10000
	cfg.FlashScale = 10
	cfg.FlashStart = 5 * sc.TimeUnit
	cfg.FlashEnd = 10 * sc.TimeUnit
	cfg.Period = 25 * sc.TimeUnit
	cfg.Cycles = 1
	return cfg
}

func elasticCell(sc Scale, shared bool) (ElasticRow, error) {
	row := ElasticRow{Arm: "sequential"}
	if shared {
		row.Arm = "shared"
	}
	w, err := flashwl.New(elasticScenario(sc))
	if err != nil {
		return row, err
	}

	engCfg := sc.engineConfig()
	engCfg.SourceTasks = 2 // keep high-ID nodes drainable
	engCfg.ExactWindows = false
	engCfg.NodeConfig.NICBytesPerSec = 1 << 20 // easy to saturate

	coreCfg := sc.coreConfig()
	coreCfg.Enabled = shared
	coreCfg.Obs = obs.New()
	coreCfg.Script = w.Schedule
	pol := elastic.DefaultConfig(sc.Nodes, sc.Nodes+4)
	coreCfg.Elastic = &core.ElasticConfig{
		Policy:       pol,
		PollInterval: sc.TimeUnit / 10,
	}

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		return row, err
	}
	eng := sys.Engine()
	w.ApplyRates(eng, 1)

	horizon := vtime.Time(0).Add(25 * sc.TimeUnit)
	flashStart := vtime.Time(0).Add(5 * sc.TimeUnit)
	sample := sc.TimeUnit / 2
	var violationEnd vtime.Time
	maxQ := eng.Network().Config().MaxQueueBytes
	for eng.Clock() < horizon {
		if err := sys.Run(sample); err != nil {
			return row, err
		}
		live := eng.LiveNodes()
		if len(row.Nodes) == 0 || eng.Clock().Sub(vtime.Time(0))%sc.TimeUnit < sample {
			row.Nodes = append(row.Nodes, live)
		}
		if live > row.PeakNodes {
			row.PeakNodes = live
		}
		pressure := eng.Network().QueuePressure()
		if maxQ > 0 && live > 0 {
			if q := eng.InboxBytes() / (float64(live) * maxQ); q > pressure {
				pressure = q
			}
		}
		if pressure > pol.HighWater {
			row.SLOViolationSec += sample.Seconds()
			violationEnd = eng.Clock()
		}
	}

	snap := sys.Snapshot()
	row.Joins = snap.ElasticJoins
	row.Drains = snap.ElasticDrains
	row.FinalNodes = snap.LiveNodes
	row.LostMB = snap.LostBytes / 1e6
	if violationEnd > flashStart {
		row.RecoverSec = violationEnd.Sub(flashStart).Seconds()
	}
	return row, nil
}

// ElasticRecoverSeconds is the benchjson entry point: the shared arm's
// flash-onset → SLO-restored time at the given scale.
func ElasticRecoverSeconds(sc Scale) (float64, error) {
	sc.DeterministicOpt = true
	row, err := elasticCell(sc, true)
	if err != nil {
		return 0, err
	}
	return row.RecoverSec, nil
}

// PrintElastic renders the elastic table and the nodes-vs-time strips.
func PrintElastic(w io.Writer, rows []ElasticRow) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.2f",
			r.Arm, r.Joins, r.Drains, r.PeakNodes, r.FinalNodes,
			r.SLOViolationSec, r.RecoverSec, r.LostMB))
	}
	table(w, "arm\tjoins\tdrains\tpeak nodes\tfinal nodes\tSLO violation (s)\trecover (s)\tlost (MB)", out)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "nodes vs time (one digit per TimeUnit):")
	for _, r := range rows {
		var sb strings.Builder
		for _, n := range r.Nodes {
			fmt.Fprintf(&sb, "%d", n%10)
		}
		fmt.Fprintf(w, "  %-10s %s\n", r.Arm, sb.String())
	}
}
