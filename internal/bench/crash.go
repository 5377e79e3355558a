package bench

import (
	"fmt"
	"io"
	"strconv"

	"saspar/internal/checkpoint"
	"saspar/internal/core"
	"saspar/internal/gcm"
	"saspar/internal/obs"
	"saspar/internal/parallel"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

// The crash experiments: a seeded, scripted node crash against a
// running SASPAR system on the GCM workload. Recovery measures
// detection, evacuation and how far sustained throughput dipped;
// CkptRecovery repeats the crash with aligned-barrier checkpoints at
// several intervals and measures what the restore brought back. Both
// tables are rows of one cell, and the uncheckpointed row is the
// recovery experiment's run.

// CrashRow is one (checkpoint interval, seed) crash cell.
type CrashRow struct {
	IntervalTU float64 // checkpoint interval in TimeUnits (0 = off)
	Seed       int64
	CrashNode  int

	Checkpoints int // completed by the time recovery settled

	DetectMs  float64 // fault strike → health-fingerprint detection
	RecoverMs float64 // detection → evacuation complete (AQE idle, no group on the dead node)
	RestoreMs float64 // slowest courier→owner state transfer
	Attempts  int     // evacuation attempts (1 unless a retry was needed)

	// Sustained throughput (M tuples/s) before the crash, from the crash
	// until recovery settled, and — uncheckpointed only — after it
	// settled; the last two also as percent of the first.
	PreMTps, DipMTps, PostMTps float64
	DipPct, PostPct            float64

	LostMB     float64 // bytes destroyed by the crash (state + queues), MB
	RestoredMB float64 // bytes re-seeded from the checkpoint, MB
	NetLostMB  float64 // max(0, Lost - Restored): work actually gone
}

// Recovery runs the fault-recovery experiment: `seeds` independent
// uncheckpointed crash cells (seed s crashes one scripted node at a
// scripted time), each measuring three throughput windows — pre-fault,
// degraded and post-recovery — plus the detection and recovery times
// from the control-plane trace.
func Recovery(sc Scale, seeds int) ([]CrashRow, error) {
	return crashCells(sc, []float64{0}, seeds)
}

// CkptRecovery runs the checkpointed-recovery experiment: the crash
// cells of Recovery again with checkpoints every {off, 1, 2, 4}
// TimeUnits, measuring gross loss, restored bytes and net loss. The
// claim under test: with checkpointing on, net lost work is bounded by
// roughly one checkpoint interval of state churn, where the baseline
// loses the whole resident state.
func CkptRecovery(sc Scale, seeds int) ([]CrashRow, error) {
	return crashCells(sc, []float64{0, 1, 2, 4}, seeds)
}

// crashCells fans intervals × seeds cells over the run-matrix pool.
func crashCells(sc Scale, intervals []float64, seeds int) ([]CrashRow, error) {
	if seeds <= 0 {
		seeds = 3
	}
	// Crash cells measure virtual-time metrics only, so the solver
	// always runs under the deterministic node-capped budget: a
	// wall-clock budget would let worker contention change the
	// evacuation plan and break the outputs-identical-at-any-worker-
	// count contract the other virtual-time harnesses keep.
	sc.DeterministicOpt = true
	return parallel.Map(sc.pool(), len(intervals)*seeds, func(i int) (CrashRow, error) {
		itv, seed := intervals[i/seeds], int64(i%seeds+1)
		row, err := crashCell(sc, itv, seed)
		if err != nil {
			return CrashRow{}, fmt.Errorf("bench: crash interval=%gTU seed %d: %w", itv, seed, err)
		}
		return row, nil
	})
}

func crashCell(sc Scale, itv float64, seed int64) (CrashRow, error) {
	row := CrashRow{IntervalTU: itv, Seed: seed}
	// The crash strikes inside a one-TimeUnit window right after the
	// pre-fault measurement closes.
	script, err := scenario.Generate(scenario.Config{
		Nodes: sc.Nodes, Seed: seed,
		Crashes: 1,
		Start:   sc.Warmup + sc.Measure, Span: sc.TimeUnit,
	})
	if err != nil {
		return row, err
	}

	gcfg := gcm.DefaultConfig()
	gcfg.NumQueries = 2
	gcfg.Window = sc.window()
	gcfg.Rate = sc.Rate
	w, err := gcm.New(gcfg)
	if err != nil {
		return row, err
	}

	engCfg := sc.engineConfig()
	engCfg.Seed = seed
	// Two source tasks on a >=3-node cluster: whichever node the script
	// crashes (never node 0), at least one source survives and the
	// cluster keeps at least one healthy slot-only node.
	engCfg.SourceTasks = 2
	engCfg.ExactWindows = false

	coreCfg := sc.coreConfig()
	coreCfg.Script = script
	coreCfg.Obs = obs.New()
	if itv > 0 {
		coreCfg.Checkpoint = checkpoint.Config{
			Interval:    vtime.Duration(itv * float64(sc.TimeUnit)),
			Incremental: true,
		}
	}

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		return row, err
	}
	w.ApplyRates(sys.Engine(), 1)
	m := sys.Engine().Metrics()
	measure := func(run func()) float64 {
		m.StartMeasurement(sys.Engine().Clock())
		run()
		m.StopMeasurement(sys.Engine().Clock())
		return m.OverallThroughput()
	}

	sys.Run(sc.Warmup)
	pre := measure(func() { sys.Run(sc.Measure) })
	// Degraded window: from just before the strike until recovery
	// completes (capped).
	dip := measure(func() {
		deadline := sys.Engine().Clock().Add(sc.Warmup + 10*sc.Measure)
		for sys.Engine().Clock() < deadline {
			sys.Run(sc.TimeUnit)
			if snap := sys.Snapshot(); snap.Recoveries > 0 && !snap.RecoveryPending {
				break
			}
		}
	})

	snap := sys.Snapshot()
	if snap.FaultsInjected == 0 || snap.FaultsDetected == 0 {
		return row, fmt.Errorf("crash never struck/detected (injected=%d detected=%d)",
			snap.FaultsInjected, snap.FaultsDetected)
	}
	if snap.Recoveries == 0 {
		return row, fmt.Errorf("recovery incomplete after cap (phase=%s attempts exhausted?)", snap.AQEPhase)
	}
	if itv > 0 && snap.Checkpoints == 0 {
		return row, fmt.Errorf("checkpointing armed but none completed before recovery")
	}
	row.Checkpoints = snap.Checkpoints
	row.LostMB = snap.LostBytes / 1e6
	row.RestoredMB = snap.RestoredBytes / 1e6
	// At-least-once replay can restore slightly more than the modelled
	// loss; net work gone is floored at zero.
	row.NetLostMB = max(0, row.LostMB-row.RestoredMB)

	var post float64
	if itv == 0 {
		sys.Run(2 * sc.TimeUnit) // drain pre-evacuation in-flight traffic
		post = measure(func() { sys.Run(sc.Measure) })
	}
	row.PreMTps, row.DipMTps, row.PostMTps = pre/1e6, dip/1e6, post/1e6
	if pre > 0 {
		row.DipPct = 100 * dip / pre
		row.PostPct = 100 * post / pre
	}
	fillCrashTimes(&row, sys.Trace())
	return row, nil
}

// fillCrashTimes extracts the strike, detection, recovery and restore
// milestones from the control-plane trace.
func fillCrashTimes(row *CrashRow, trace []obs.Event) {
	attr := func(ev obs.Event, key string) string {
		for _, kv := range ev.Attrs {
			if kv.K == key {
				return kv.V
			}
		}
		return ""
	}
	var struck, detected vtime.Time
	for _, ev := range trace {
		switch ev.Kind {
		case obs.EvFaultInjected:
			if struck == 0 && attr(ev, "kind") == "crash" && attr(ev, "phase") == "begin" {
				struck = ev.Time
				row.CrashNode, _ = strconv.Atoi(attr(ev, "node"))
			}
		case obs.EvFaultDetected:
			if struck != 0 && detected == 0 {
				detected = ev.Time
				row.DetectMs = ms(detected.Sub(struck))
			}
		case obs.EvFaultRecovered:
			row.RecoverMs, _ = strconv.ParseFloat(attr(ev, "recovery_ms"), 64)
			row.Attempts, _ = strconv.Atoi(attr(ev, "attempts"))
		case obs.EvCheckpointRestore:
			row.RestoreMs, _ = strconv.ParseFloat(attr(ev, "restore_ms"), 64)
		}
	}
}

// PrintRecovery renders the recovery table.
func PrintRecovery(w io.Writer, rows []CrashRow) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d\t%d\t%.0f\t%.0f\t%d\t%.2f\t%.2f (%.0f%%)\t%.2f (%.0f%%)\t%.1f",
			r.Seed, r.CrashNode, r.DetectMs, r.RecoverMs, r.Attempts,
			r.PreMTps, r.DipMTps, r.DipPct, r.PostMTps, r.PostPct, r.LostMB))
	}
	table(w, "seed\tcrash node\tdetect (ms)\trecover (ms)\tattempts\tpre (MT/s)\tdegraded (MT/s)\tpost (MT/s)\tlost (MB)", out)
}

// PrintCkptRecovery renders the checkpointed-recovery table.
func PrintCkptRecovery(w io.Writer, rows []CrashRow) {
	var out []string
	for _, r := range rows {
		itv := "off"
		if r.IntervalTU > 0 {
			itv = fmt.Sprintf("%gTU", r.IntervalTU)
		}
		out = append(out, fmt.Sprintf("%s\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\t%.1f",
			itv, r.Seed, r.CrashNode, r.Checkpoints,
			r.DetectMs, r.RecoverMs, r.RestoreMs,
			r.LostMB, r.RestoredMB, r.NetLostMB))
	}
	table(w, "interval\tseed\tcrash node\tckpts\tdetect (ms)\trecover (ms)\trestore (ms)\tlost (MB)\trestored (MB)\tnet lost (MB)", out)
}
