// Package core is SASPAR itself: the versatile layer that sits on top
// of a stream processing engine (Section I-C). It wires together the
// statistics collector (exact SharedWith; the paper's random-forest
// estimator is measured by internal/bench only), the MIP+heuristics
// optimizer, and the adaptive-query-execution controller into one
// periodic control loop over a running engine:
//
//	collect stats → build the optimization request → solve
//	(Algorithm 1) → if the new plan beats the current one, swap it in
//	live via the AQE protocol.
//
// A System with Enabled=false is the vanilla SUT: same engine, same
// queries, per-query partitioning, no optimizer — the paper's baseline
// in every comparison.
package core

import (
	"fmt"

	"saspar/internal/aqe"
	"saspar/internal/checkpoint"
	"saspar/internal/elastic"
	"saspar/internal/engine"
	"saspar/internal/netsim"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/scenario"
	"saspar/internal/stats"
	"saspar/internal/vtime"
)

// Config controls the SASPAR layer.
type Config struct {
	// Enabled turns the layer on; false runs the vanilla SPE.
	Enabled bool

	// TriggerInterval is how often the optimizer fires (Fig. 11; the
	// paper found 4 virtual minutes best and uses it throughout).
	TriggerInterval vtime.Duration

	// SampleEvery samples one of every N concrete tuples for
	// statistics.
	SampleEvery int

	// MinSamples gates optimization: with fewer sampled tuples the
	// statistics are too noisy to act on.
	MinSamples int

	// DriftTrigger, when > 0, fires the optimizer early — before the
	// periodic interval — once any stream's key-group distribution has
	// drifted by this L1 distance from the previous epoch (the paper's
	// "triggers the optimizer when the objective is beyond the allowed
	// threshold", driven by the statistic that moves the objective).
	// Early triggers still respect a quarter-interval cooldown.
	DriftTrigger float64

	// MinImprovement is the relative objective gain required before a
	// new plan replaces the running one (hysteresis against churn).
	MinImprovement float64

	// PlanHorizon is how many statistics epochs a new plan is expected
	// to stay in force. A plan is applied only when its per-epoch gain
	// times the horizon exceeds the one-time cost of moving the window
	// state of every re-assigned key group (the reshuffle of Fig. 9) —
	// this keeps reconfigurations incremental instead of wholesale.
	PlanHorizon float64

	// Opt are the Algorithm 1 solver controls.
	Opt optimizer.Options

	// Obs, when non-nil, receives live telemetry from every layer: the
	// control loop's trigger/decision events and counters, the AQE
	// phase transitions, the engine's per-tick queue gauges, and the
	// network link gauges. Nil (the default) disables telemetry
	// entirely — the engine hot path then takes a single never-taken
	// branch per hook and allocates nothing.
	Obs *obs.Registry

	// Script, when non-empty, is replayed against the engine as the
	// system runs (see internal/scenario and replay.go): faults strike
	// nodes and rate events set offered rates. When the script holds a
	// fault, the control loop watches the cluster health fingerprint
	// and, on a change, enters degraded mode: the optimizer's placement
	// domain excludes partitions on unhealthy nodes and an evacuation
	// reconfiguration is driven through AQE until no key group remains
	// on one. Without a fault every fault path stays dormant.
	Script scenario.Script

	// RecoveryBackoff is the virtual-time wait before re-attempting an
	// evacuation whose reconfiguration was itself interrupted (it
	// doubles per attempt). 0 means the 500ms default.
	RecoveryBackoff vtime.Duration

	// Checkpoint arms periodic aligned-barrier checkpointing when its
	// Interval is non-zero (see internal/checkpoint). With a
	// fault in the Script, the degraded-mode recovery loop restores
	// evacuated key groups from the newest pre-fault checkpoint once
	// evacuation completes, so node death loses at most roughly one
	// checkpoint interval of window state instead of all of it.
	Checkpoint checkpoint.Config

	// MigrationMode selects the state-transfer path for every
	// reconfiguration — optimizer plans, fault evacuations, elastic
	// rebalances and drains all funnel through the same gate.
	// MigrationPause is classic pause-and-transfer: all moved window
	// state ships at the AQE alignment point. MigrationStaged pre-stages
	// the moving cells from the newest covering checkpoint chain while
	// processing continues and ships only the since-barrier residual at
	// alignment (falling back to pause-and-transfer per plan when no
	// usable chain exists, the store node is dead, or a fault voids the
	// stage). Empty selects staged whenever Checkpoint is armed and
	// pause otherwise.
	MigrationMode string

	// Elastic, when non-nil, arms the autoscaling control loop: load
	// signals are polled on a fixed cadence and the policy's verdicts
	// admit nodes at runtime (engine.AddNode + a mandatory rebalance)
	// or drain them (AQE evacuation + engine.RetireNode). Works for
	// both the shared layer and the vanilla baseline; see elastic.go.
	Elastic *ElasticConfig
}

// Validate checks the control-loop knobs and returns a descriptive
// error for the first violation. New calls it before building the
// engine; callers assembling configurations programmatically can call
// it directly to fail early. A disabled layer skips the loop checks —
// those knobs are never read.
func (c Config) Validate() error {
	// Checkpointing is validated even for a disabled (vanilla) layer:
	// the coordinator polls from Run either way.
	if c.Checkpoint.Interval != 0 {
		if err := c.Checkpoint.Validate(); err != nil {
			return err
		}
	}
	// Migration mode gates every reconfiguration producer, including the
	// vanilla baseline's elastic rounds, so it too precedes the gate.
	switch c.MigrationMode {
	case "", MigrationStaged, MigrationPause:
	default:
		return fmt.Errorf("core: MigrationMode must be %q, %q or empty, got %q",
			MigrationStaged, MigrationPause, c.MigrationMode)
	}
	// The autoscaler, like checkpointing, also drives the vanilla
	// baseline, so it is validated before the Enabled gate.
	if c.Elastic != nil {
		if err := c.Elastic.Policy.Validate(); err != nil {
			return err
		}
	}
	if !c.Enabled {
		return nil
	}
	if c.SampleEvery <= 0 {
		return fmt.Errorf("core: SampleEvery must be positive when enabled, got %d", c.SampleEvery)
	}
	if c.TriggerInterval <= 0 {
		return fmt.Errorf("core: TriggerInterval must be positive when enabled, got %v", c.TriggerInterval)
	}
	if c.MinSamples < 0 {
		return fmt.Errorf("core: MinSamples must be non-negative, got %d", c.MinSamples)
	}
	if c.DriftTrigger < 0 {
		return fmt.Errorf("core: DriftTrigger must be non-negative, got %v", c.DriftTrigger)
	}
	if c.MinImprovement < 0 {
		return fmt.Errorf("core: MinImprovement must be non-negative, got %v", c.MinImprovement)
	}
	if c.PlanHorizon < 0 {
		return fmt.Errorf("core: PlanHorizon must be non-negative (0 disables movement amortization), got %v", c.PlanHorizon)
	}
	return nil
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Enabled:         true,
		TriggerInterval: 4 * vtime.Minute,
		SampleEvery:     4,
		MinSamples:      64,
		MinImprovement:  0.01,
		PlanHorizon:     4,
	}
}

// System is one running system under test: an engine plus (optionally)
// the SASPAR layer.
type System struct {
	eng *engine.Engine
	col *stats.Collector
	ctl *aqe.Controller
	cfg Config

	lastTrigger   vtime.Time
	lastEpoch     vtime.Time
	triggers      int
	driftTriggers int
	skipped       int // optimizations whose plan was not worth applying
	// skip diagnostics
	skippedByGain, skippedByMove int
	lastCurObj, lastNewObj       float64
	lastMoveCost                 float64
	lastMoved                    int
	streamBytes                  []float64 // per stream tuple size (for cost coefficients)

	// The script replay, and fault detection and recovery (all dormant
	// unless the script holds a fault).
	replay           *replay
	watchHealth      bool   // the script holds a fault and the layer is enabled
	lastHealth       uint64 // engine health fingerprint at the last poll
	recoveryPending  bool   // degraded: an evacuation is owed or in flight
	recoveryStart    vtime.Time
	recoveryAttempts int
	nextRecoveryTry  vtime.Time
	faultsDetected   int
	recoveries       int

	// Checkpointing (nil without a Checkpoint.Interval). destroyed
	// records the (query, group) cells whose window state the current
	// fault episode actually destroyed (drained from the engine) — the
	// set restore re-seeds once recovery completes.
	ckpt      *checkpoint.Coordinator
	destroyed map[checkpoint.GroupKey]bool

	// What the reconfiguration episode in flight staged, and the totals
	// of the episodes that ended (see episode.go).
	ep                 stage
	migrationsStaged   int
	migrationFallbacks int
	migPauseSec        float64 // cumulative injection→alignment pause, virtual seconds

	// Elasticity (nil without an Elastic config).
	el *elasticRun

	// The optimizer's rounds (see solve.go): running totals and the most
	// recent result, the solve in flight if there is one, and the results
	// that arrived too late to install. solve is optimizer.Optimize
	// outside tests.
	rounds      int
	solves      int
	nodes       int64
	lastResult  *optimizer.Result
	solve       func(*optimizer.Request, optimizer.Options) (*optimizer.Result, error)
	inFlight    *solveJob
	stalePlans  int
	lastSolveMs float64 // wall clock

	obs *sysObs // nil unless cfg.Obs is set
}

// sysObs holds the control loop's telemetry handles, resolved once in
// New. Decision and trigger counters are labelled series of one family
// each, so the Prometheus snapshot groups them.
type sysObs struct {
	reg *obs.Registry

	trigPeriodic, trigDrift, trigManual *obs.Counter
	accepted, skipGain, skipMove        *obs.Counter
	solves, nodes                       *obs.Counter
	boundGap                            *obs.Gauge
	objective                           *obs.Gauge

	faultsDetected, recoveries *obs.Counter
	recoveryTime               *obs.Histogram
	restoreTime                *obs.Histogram
	lostBytes                  *obs.Gauge
	restoredBytes              *obs.Gauge

	elJoins, elDrains     *obs.Counter
	elDecJoin, elDecDrain *obs.Counter
	elLiveNodes           *obs.Gauge
	elDrainTime           *obs.Histogram

	stagedEpisodes                *obs.Counter
	migPause                      *obs.Histogram
	stagedBytes, migResidualBytes *obs.Gauge
}

func newSysObs(r *obs.Registry) *sysObs {
	trig := func(reason string) *obs.Counter {
		return r.Counter(fmt.Sprintf("saspar_optimizer_triggers_total{reason=%q}", reason),
			"Optimizer invocations by trigger reason.")
	}
	dec := func(decision string) *obs.Counter {
		return r.Counter(fmt.Sprintf("saspar_plan_decisions_total{decision=%q}", decision),
			"Solved-plan decisions by outcome.")
	}
	eldec := func(action string) *obs.Counter {
		return r.Counter(fmt.Sprintf("saspar_elastic_decisions_total{action=%q}", action),
			"Autoscaler policy verdicts by action.")
	}
	return &sysObs{
		reg:          r,
		trigPeriodic: trig("periodic"),
		trigDrift:    trig("drift"),
		trigManual:   trig("manual"),
		accepted:     dec("accepted"),
		skipGain:     dec("skipped_gain"),
		skipMove:     dec("skipped_move"),
		solves: r.Counter("saspar_optimizer_solves_total",
			"MIP invocations across all optimization rounds."),
		nodes: r.Counter("saspar_optimizer_nodes_total",
			"Branch-and-bound nodes explored across all optimization rounds."),
		boundGap: r.Gauge("saspar_optimizer_bound_gap",
			"Worst relative optimality gap of the last optimization round."),
		objective: r.Gauge("saspar_plan_objective",
			"Exact-model objective of the last solved plan."),
		faultsDetected: r.Counter("saspar_faults_detected_total",
			"Health-fingerprint changes that left unhealthy nodes behind."),
		recoveries: r.Counter("saspar_fault_recoveries_total",
			"Faults fully recovered from (no key group left on an unhealthy node)."),
		// Time histograms in this package share one unit — virtual
		// seconds — and say so in their help strings (audited by
		// TestTimeHistogramUnitsDocumented).
		recoveryTime: r.Histogram("saspar_fault_recovery_seconds",
			"Virtual time from fault detection to completed evacuation. Unit: virtual seconds.",
			[]float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}),
		restoreTime: r.Histogram("saspar_fault_restore_seconds",
			"Virtual time to re-ship checkpointed state to the evacuated groups' new owners. Unit: virtual seconds.",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8}),
		lostBytes: r.Gauge("saspar_fault_lost_bytes",
			"Cumulative bytes destroyed by node crashes (engine + network)."),
		restoredBytes: r.Gauge("saspar_fault_restored_bytes",
			"Cumulative bytes of window state re-installed from checkpoints."),
		elJoins: r.Counter("saspar_elastic_joins_total",
			"Nodes admitted into the cluster at runtime by the autoscaler."),
		elDrains: r.Counter("saspar_elastic_drains_total",
			"Nodes drained and retired at runtime by the autoscaler."),
		elDecJoin:  eldec("join"),
		elDecDrain: eldec("drain"),
		elLiveNodes: r.Gauge("saspar_elastic_live_nodes",
			"Nodes currently neither crashed nor retired."),
		elDrainTime: r.Histogram("saspar_elastic_drain_seconds",
			"Virtual time from drain decision to node retirement. Unit: virtual seconds.",
			[]float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}),
		stagedEpisodes: r.Counter("saspar_migrations_staged_total",
			"Reconfigurations whose moving cells were pre-staged from a checkpoint chain."),
		migPause: r.Histogram("saspar_migration_pause_seconds",
			"Virtual time from marker injection to alignment completion, per reconfiguration. Unit: virtual seconds.",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8}),
		stagedBytes: r.Gauge("saspar_migration_staged_bytes",
			"Cumulative modelled bytes of window state pre-staged to migration destinations."),
		migResidualBytes: r.Gauge("saspar_migration_residual_bytes",
			"Cumulative at-alignment bytes shipped for pre-staged cells (the since-barrier residual)."),
	}
}

// New builds a system. The engine's Shared flag is forced to match
// cfg.Enabled: the SASPAR layer owns the shared partitioner.
func New(engCfg engine.Config, streams []engine.StreamDef, queries []engine.QuerySpec, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RecoveryBackoff <= 0 {
		cfg.RecoveryBackoff = 500 * vtime.Millisecond
	}
	engCfg.Shared = cfg.Enabled
	eng, err := engine.New(engCfg, streams, queries)
	if err != nil {
		return nil, err
	}
	s := &System{eng: eng, ctl: aqe.New(eng), cfg: cfg, solve: optimizer.Optimize}
	if cfg.Checkpoint.Interval > 0 {
		s.ckpt, err = checkpoint.New(eng, cfg.Checkpoint, cfg.Obs)
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.Script) > 0 {
		s.replay, err = newReplay(eng, cfg.Script, cfg.Obs)
		if err != nil {
			return nil, err
		}
		s.watchHealth = cfg.Enabled && cfg.Script.HasFaults()
		s.lastHealth = eng.HealthFingerprint()
	}
	if cfg.Elastic != nil {
		pol, err := elastic.NewPolicy(cfg.Elastic.Policy)
		if err != nil {
			return nil, err
		}
		poll := cfg.Elastic.PollInterval
		if poll <= 0 {
			poll = vtime.Second
		}
		s.el = &elasticRun{cfg: *cfg.Elastic, pol: pol, poll: poll}
	}
	for _, sd := range streams {
		s.streamBytes = append(s.streamBytes, sd.BytesPerTuple)
	}
	if cfg.Obs != nil {
		s.obs = newSysObs(cfg.Obs)
		eng.SetObs(cfg.Obs)
		s.ctl.SetObs(cfg.Obs)
	}
	if cfg.Enabled {
		scale := float64(cfg.SampleEvery) * engCfg.TupleWeight
		s.col = stats.NewCollector(len(streams), engCfg.NumGroups, scale)
		eng.SetSampler(s.col, cfg.SampleEvery)
	}
	return s, nil
}

// Engine exposes the underlying engine (rates, metrics, results).
func (s *System) Engine() *engine.Engine { return s.eng }

// Collector exposes the statistics collector (nil when disabled).
func (s *System) Collector() *stats.Collector { return s.col }

// Controller exposes the AQE controller.
func (s *System) Controller() *aqe.Controller { return s.ctl }

// Checkpointer exposes the checkpoint coordinator (nil when
// checkpointing is off).
func (s *System) Checkpointer() *checkpoint.Coordinator { return s.ckpt }

// LastOptimization returns the most recent optimizer result, nil before
// the first round. Earlier rounds survive only as the totals in Report.
func (s *System) LastOptimization() *optimizer.Result { return s.lastResult }

// Report is a point-in-time snapshot of the whole system: the control
// loop's decision counters, the AQE state, and the engine/network
// run metrics. It is the one public surface harnesses, examples and
// commands read — System's internal counters are not exported.
type Report struct {
	Clock   vtime.Time
	Enabled bool

	// Control loop.
	Triggers      int // optimizer invocations that passed the sample gate
	DriftTriggers int // subset fired early by the drift signal
	SkippedPlans  int // solved plans not worth a reconfiguration
	SkippedByGain int // ...of those, plans that missed the gain bar outright
	SkippedByMove int // ...plans gated only by the amortized movement bill
	Optimizations int // optimizer rounds solved
	Solves        int // MIP invocations across all rounds
	NodesExplored int64
	LastCurObj    float64 // incumbent objective at the last decision
	LastNewObj    float64 // solved objective (incl. movement) at the last decision
	LastMoveCost  float64 // movement share of the last skipped plan's objective
	LastMoved     int     // key groups moved by the last accepted plan

	// AQE.
	Applied  int // reconfigurations completed end-to-end
	AQEPhase string

	// Engine measurement window.
	Throughput    float64 // modelled tuples/s, all queries
	AvgLatency    vtime.Duration
	LatencyStddev vtime.Duration
	Reshuffled    float64
	JITCompiles   int
	JITTime       vtime.Duration
	SharingRatio  float64

	// Network, cumulative since construction.
	Net netsim.Stats

	// Faults (all zero unless the Script holds a fault).
	FaultsInjected  int     // script fault events struck so far
	FaultsDetected  int     // health-fingerprint changes with unhealthy nodes
	Recoveries      int     // evacuations completed (cluster healthy or drained)
	RecoveryPending bool    // degraded right now, evacuation owed or in flight
	LostBytes       float64 // bytes destroyed by crashes (engine routing + network queues)

	// Checkpointing (all zero without a Checkpoint config).
	Checkpoints     int     // aligned-barrier checkpoints completed and stored
	CheckpointBytes float64 // cumulative snapshot bytes written to the store
	RestoredBytes   float64 // window state re-installed from checkpoints after evacuations

	// Checkpoint-staged migration. MigrationPauseSec and AlignmentBytes
	// are populated in both transfer modes (they are the figure's axes);
	// the rest are zero outside staged mode.
	MigrationsStaged   int     // reconfigurations that ran checkpoint-staged end-to-end
	MigrationFallbacks int     // reconfigurations forced back to pause-and-transfer
	StagedBytes        float64 // window state pre-shipped store→destination
	ResidualBytes      float64 // at-alignment bytes for pre-staged cells (since-barrier residual)
	AlignmentBytes     float64 // all moved-state payload bytes shipped at alignment points
	MigrationPauseSec  float64 // cumulative injection→alignment pause, virtual seconds

	// Elasticity. LiveNodes is always populated; the rest are zero
	// without an Elastic config.
	LiveNodes       int  // nodes neither crashed nor retired
	ElasticJoins    int  // nodes admitted at runtime
	ElasticDrains   int  // nodes drained and retired at runtime
	ElasticDraining bool // a drain is evacuating right now
}

// Snapshot assembles the current Report. Safe to call at any point of
// a run; engine metrics reflect the current measurement window.
func (s *System) Snapshot() Report {
	m := s.eng.Metrics()
	injected := 0
	if s.replay != nil {
		injected = s.replay.struck
	}
	net := s.eng.Network().Stats()
	ckpts, ckptBytes := 0, 0.0
	if s.ckpt != nil {
		ckpts = s.ckpt.Completed()
		ckptBytes = s.ckpt.BytesStored()
	}
	joins, drains, draining := s.ElasticState()
	return Report{
		LiveNodes:          s.eng.LiveNodes(),
		ElasticJoins:       joins,
		ElasticDrains:      drains,
		ElasticDraining:    draining,
		Checkpoints:        ckpts,
		CheckpointBytes:    ckptBytes,
		RestoredBytes:      s.eng.RestoredBytes(),
		MigrationsStaged:   s.migrationsStaged,
		MigrationFallbacks: s.migrationFallbacks,
		StagedBytes:        s.eng.StagedBytes(),
		ResidualBytes:      s.eng.ResidualBytes(),
		AlignmentBytes:     s.eng.AlignmentBytes(),
		MigrationPauseSec:  s.migPauseSec,
		FaultsInjected:     injected,
		FaultsDetected:     s.faultsDetected,
		Recoveries:         s.recoveries,
		RecoveryPending:    s.recoveryPending,
		LostBytes:          s.eng.LostBytes() + net.BytesLost,
		Clock:              s.eng.Clock(),
		Enabled:            s.cfg.Enabled,
		Triggers:           s.triggers,
		DriftTriggers:      s.driftTriggers,
		SkippedPlans:       s.skipped,
		SkippedByGain:      s.skippedByGain,
		SkippedByMove:      s.skippedByMove,
		Optimizations:      s.rounds,
		Solves:             s.solves,
		NodesExplored:      s.nodes,
		LastCurObj:         s.lastCurObj,
		LastNewObj:         s.lastNewObj,
		LastMoveCost:       s.lastMoveCost,
		LastMoved:          s.lastMoved,
		Applied:            s.ctl.Applied(),
		AQEPhase:           s.ctl.Phase().String(),
		Throughput:         m.OverallThroughput(),
		AvgLatency:         m.AvgLatency(),
		LatencyStddev:      m.LatencyStddev(),
		Reshuffled:         m.Reshuffled(),
		JITCompiles:        m.JITCompiles(),
		JITTime:            m.JITTime(),
		SharingRatio:       m.SharingRatio(),
		Net:                net,
	}
}

// Trace returns the control-plane event trace accumulated so far
// (oldest first). Nil when no telemetry registry is configured.
func (s *System) Trace() []obs.Event {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg.Events()
}

// AddQuery registers an ad-hoc query at run time. Statistics are reset
// (route-class identities shift with the plan), so the next trigger
// optimizes with fresh samples covering the newcomer.
func (s *System) AddQuery(spec engine.QuerySpec) (int, error) {
	qi, err := s.eng.AddQuery(spec)
	if err != nil {
		return 0, err
	}
	if s.col != nil {
		s.col.Reset(s.eng.Clock())
	}
	return qi, nil
}

// RemoveQuery retires an ad-hoc query at run time.
func (s *System) RemoveQuery(qi int) error {
	if err := s.eng.RemoveQuery(qi); err != nil {
		return err
	}
	if s.col != nil {
		s.col.Reset(s.eng.Clock())
	}
	return nil
}

// Run advances the system by d of virtual time. Each tick: the engine,
// checkpoints, the script replay, the episode in flight, fault detection,
// the solve in flight, and — when no episode holds the floor — whichever
// producer is next in line (episode.go). A non-positive duration is a
// caller bug (a miscomputed warm-up or measurement interval) that would
// silently no-op, so it is rejected — mirroring Engine.Run.
func (s *System) Run(d vtime.Duration) error {
	if d <= 0 {
		return fmt.Errorf("core: run duration must be positive, got %v", d)
	}
	tick := s.eng.Config().Tick
	end := s.eng.Clock().Add(d)
	s.replay.advance(s.eng.Clock()) // events due before the first tick
	for s.eng.Clock() < end {
		if err := s.eng.Run(tick); err != nil {
			return err
		}
		if s.ckpt != nil {
			// Harvest/trigger checkpoint barriers before the script
			// strikes: a checkpoint whose barrier fully aligned by this
			// tick completes even when a crash lands at the same instant.
			s.ckpt.Poll()
		}
		s.replay.advance(s.eng.Clock())
		s.advance()
		if s.watchHealth {
			// Detection runs even while AQE is busy: a fault striking
			// mid-reconfiguration must restart the recovery clock.
			s.pollHealth()
		}
		// A solve that finished during the tick installs (or is dropped
		// as stale) before any other producer can start a plan.
		s.pollSolve()
		if !s.ctl.Busy() {
			s.next()
		}
	}
	return nil
}

// maxDrift reports the largest per-stream distribution drift since the
// previous statistics epoch.
func (s *System) maxDrift() float64 {
	var worst float64
	for st := 0; st < s.eng.NumStreams(); st++ {
		if d := s.col.Drift(st); d > worst {
			worst = d
		}
	}
	return worst
}

// Trigger reasons, also the values of the optimizer_trigger event's
// reason attribute and the triggers_total counter label.
const (
	triggerPeriodic = "periodic"
	triggerDrift    = "drift"
	triggerManual   = "manual"
)

// TriggerNow starts one optimization round immediately, gates and all,
// as a periodic trigger would (a test hook).
func (s *System) TriggerNow() { s.trigger(triggerManual) }

// trigger starts one optimization round: snapshot the statistics and
// the running plan, score the incumbent, and hand the snapshot to the
// solver (solve.go). The result is installed — or skipped as not worth
// a reconfiguration — by install; when no source is fed that happens
// before trigger returns. While a solve is in flight a trigger only
// restarts the interval.
func (s *System) trigger(reason string) {
	s.lastTrigger = s.eng.Clock()
	if !s.cfg.Enabled || s.ctl.Busy() || s.inFlight != nil {
		return
	}
	if s.col.Samples() < s.cfg.MinSamples {
		return
	}
	s.triggers++
	if s.obs != nil {
		switch reason {
		case triggerPeriodic:
			s.obs.trigPeriodic.Inc()
		case triggerDrift:
			s.obs.trigDrift.Inc()
		default:
			s.obs.trigManual.Inc()
		}
		s.obs.reg.Emit(s.eng.Clock(), obs.EvOptimizerTrigger,
			obs.S("reason", reason),
			obs.I("samples", int64(s.col.Samples())))
	}

	// Keep new placements off unhealthy, retired, and draining nodes —
	// the mask is nil (unrestricted) whenever nothing needs excluding.
	allowed, _ := s.allowedPartitions()
	snap := s.snapshotPlan(allowed)
	if snap == nil {
		return
	}
	// Score the running plan for the hysteresis comparison.
	curObj, err := optimizer.Score(snap.req, snap.anchors)
	if err != nil {
		return
	}
	snap.curObj = curObj
	if h := s.cfg.PlanHorizon; h > 0 {
		// Moving a key group re-ships its in-window state through the
		// network twice; amortized over the plan's expected lifetime
		// (h statistics epochs), that is the per-tuple move cost the
		// solver weighs against the sharing/balance gain.
		interval := s.cfg.TriggerInterval.Seconds()
		snap.opt.MoveCost = make([]float64, len(snap.classes))
		for i, cc := range snap.classes {
			rangeSec := s.eng.QuerySpecOf(cc.members[0]).Window.Range.Seconds()
			snap.opt.MoveCost[i] = (rangeSec / interval) * 2 * snap.req.LatNet / h
		}
	}
	s.inFlight = s.launch(snap)
	if !s.eng.Fed() {
		s.finishSolve(<-s.inFlight.done)
	}
}

// install decides what to do with a solved plan that is still current:
// hand it to AQE, or skip it — classifying the skip as gain-gated (the
// plan isn't better enough even before movement) or movement-gated (the
// sharing gain cleared the bar but the amortized state-movement bill
// ate it).
func (s *System) install(snap *planSnapshot, res *optimizer.Result) {
	req, classes, curObj := snap.req, snap.classes, snap.curObj
	if s.obs != nil {
		s.obs.boundGap.Set(res.BoundGap)
		s.obs.objective.Set(res.Objective)
		for _, h := range res.Heuristics {
			s.obs.reg.Counter(fmt.Sprintf("saspar_optimizer_heuristics_total{heuristic=%q}", h),
				"Cascade heuristics applied, by name.").Inc()
		}
	}
	// grossObj is the plan's objective WITHOUT the amortized movement
	// penalty — res.Objective minus the movement bill. Comparing both
	// against the hysteresis bar classifies a skip: gain-gated (the
	// sharing/balance gain alone is too small) vs movement-gated (the
	// gain clears the bar but moving the window state eats it).
	grossObj, gerr := optimizer.Score(req, res.Assign)
	if gerr != nil {
		grossObj = res.Objective
	}
	s.lastCurObj, s.lastNewObj = curObj, res.Objective
	s.lastMoveCost = res.Objective - grossObj
	if skip, why := classifySkip(curObj, res.Objective, grossObj, s.cfg.MinImprovement); skip {
		s.skipped++
		if why == skipMovement {
			s.skippedByMove++
		} else {
			s.skippedByGain++
		}
		if s.obs != nil {
			if why == skipMovement {
				s.obs.skipMove.Inc()
			} else {
				s.obs.skipGain.Inc()
			}
			s.obs.reg.Emit(s.eng.Clock(), obs.EvPlanSkipped,
				obs.S("reason", why),
				obs.F("cur_obj", curObj),
				obs.F("new_obj", res.Objective),
				obs.F("gross_obj", grossObj),
				obs.I("solves", int64(res.Solves)),
				obs.I("nodes", res.Nodes))
		}
		s.col.Reset(s.eng.Clock())
		return
	}
	newAssign := classAssignments(classes, res)
	moved := 0
	for qi, a := range newAssign {
		moved += len(s.eng.Assignment(qi).Diff(a))
	}
	if _, err := s.begin(newAssign); err == nil {
		s.lastMoved = moved
		if s.obs != nil {
			s.obs.accepted.Inc()
			via := res.SucceededVia
			if via == "" {
				via = "incumbent" // cascade exhausted; best incumbent won
			}
			s.obs.reg.Emit(s.eng.Clock(), obs.EvPlanAccepted,
				obs.F("cur_obj", curObj),
				obs.F("new_obj", res.Objective),
				obs.I("moved_groups", int64(moved)),
				obs.I("solves", int64(res.Solves)),
				obs.I("nodes", res.Nodes),
				obs.F("bound_gap", res.BoundGap),
				obs.S("via", via))
		}
		s.col.Reset(s.eng.Clock())
	}
}

// Skip reasons; also the plan_skipped event's reason attribute.
const (
	skipGain     = "gain"
	skipMovement = "movement"
	skipStale    = "stale" // not a verdict on the plan: it answers a system that is gone
)

// classifySkip applies the hysteresis gate of the control loop and, on
// a skip, names the binding constraint. The accept/skip decision
// depends ONLY on netObj — the solver's objective with the amortized
// movement penalty included, exactly the historical comparison — so
// classification can never change which plans run. grossObj (the same
// plan scored without movement) merely attributes the skip: below the
// bar on its own merits = gain-gated; below the bar only after the
// movement bill = movement-gated.
func classifySkip(curObj, netObj, grossObj, minImprovement float64) (skip bool, reason string) {
	bar := curObj * (1 - minImprovement)
	if netObj < bar {
		return false, ""
	}
	if grossObj < bar {
		return true, skipMovement
	}
	return true, skipGain
}

// canonicalClass groups queries whose partitioning decisions are
// interchangeable: identical input streams, key columns, and filters.
type canonicalClass struct {
	members []int // engine query indexes
}

// canonicalClasses groups the active queries by partitioning signature,
// in query order.
func (s *System) canonicalClasses() []canonicalClass {
	eng := s.eng
	bySig := map[string]int{}
	var classes []canonicalClass
	for qi := 0; qi < eng.NumQueries(); qi++ {
		if !eng.QueryActive(qi) {
			continue
		}
		spec := eng.QuerySpecOf(qi)
		sig := ""
		for _, in := range spec.Inputs {
			sig += fmt.Sprintf("|s%d k%v f%d", in.Stream, in.Key, in.FilterID)
		}
		ci, ok := bySig[sig]
		if !ok {
			ci = len(classes)
			bySig[sig] = ci
			classes = append(classes, canonicalClass{})
		}
		classes[ci].members = append(classes[ci].members, qi)
	}
	return classes
}

// buildRequest assembles the optimizer request from current statistics.
func (s *System) buildRequest() (*optimizer.Request, []canonicalClass) {
	eng := s.eng
	ecfg := eng.Config()
	classes := s.canonicalClasses()
	// Nothing left to optimize (every query retired): return before the
	// coefficient math so no degenerate mean can produce NaN that would
	// leak into reports or exported requests.
	if len(classes) == 0 {
		return nil, nil
	}

	// Latency coefficients are per-tuple occupancies, not propagation
	// delays: what a tuple costs the system (serialization CPU plus its
	// share of NIC bandwidth), so traffic and makespan terms trade off
	// on comparable scales. Propagation latency is a constant offset
	// that no assignment can change.
	cost := ecfg.Cost
	var avgBytes float64
	for st := 0; st < eng.NumStreams(); st++ {
		avgBytes += s.streamBytes[st]
	}
	if n := eng.NumStreams(); n > 0 {
		avgBytes /= float64(n)
	}
	wire := avgBytes / eng.Network().Bandwidth()
	latNet := cost.SerCPU + cost.DeserCPU + wire
	latMem := cost.RouteCPU + 0.01*wire
	localFrac := eng.LocalFractions()
	meanLat := 0.0
	for _, lf := range localFrac {
		meanLat += latNet*(1-lf) + latMem*lf
	}
	// Guard the mean: an empty partition set (or zero coefficients) must
	// degrade to zero, not divide into NaN.
	if n := len(localFrac); n > 0 {
		meanLat /= float64(n)
	}

	// LatProc reflects the actual post-partition pipeline: operator
	// insert cost (JoinCPU scaled by the profile, or AggCPU) plus
	// result emission, doubled for window maintenance — a tuple is
	// touched again when its windows close and compact. This is the
	// "end-to-end" weighting Eq. 9 asks for; underweighting it makes
	// the optimizer blind to load imbalance.
	var opCPU float64
	for qi := 0; qi < eng.NumQueries(); qi++ {
		spec := eng.QuerySpecOf(qi)
		if spec.Kind == engine.OpJoin {
			f := ecfg.Profile.JoinCPUFactor
			if f <= 0 {
				f = 1
			}
			fan := spec.JoinFanout
			if fan <= 0 {
				fan = 0.25
			}
			opCPU += 2 * (cost.JoinCPU*f + cost.EmitCPU*fan)
		} else {
			opCPU += 2 * (cost.AggCPU + 0.1*cost.EmitCPU)
		}
	}
	if n := eng.NumQueries(); n > 0 {
		opCPU /= float64(n)
	}
	latProc := 0.0
	if meanLat > 0 {
		latProc = opCPU / meanLat
	}

	req := &optimizer.Request{
		NumPartitions: ecfg.NumPartitions,
		NumGroups:     ecfg.NumGroups,
		NumStreams:    eng.NumStreams(),
		LocalFrac:     localFrac,
		LatNet:        latNet,
		LatMem:        latMem,
		LatProc:       latProc,
	}

	for _, cc := range classes {
		rep := cc.members[0]
		spec := eng.QuerySpecOf(rep)
		q := optimizer.QueryStats{ID: spec.ID, Weight: float64(len(cc.members))}
		for side := range spec.Inputs {
			stream, classID := eng.ClassOf(rep, side)
			q.Inputs = append(q.Inputs, optimizer.InputStats{
				Stream: int(stream),
				Card:   s.col.CardVector(int(stream), classID),
				SW:     s.col.SWVector(int(stream), classID),
			})
		}
		req.Queries = append(req.Queries, q)
	}
	return req, classes
}

// ExportRequest exposes the optimizer request built from the current
// statistics together with each canonical class's representative query
// index — a diagnostics hook for benchmarks and tests.
func ExportRequest(s *System) (*optimizer.Request, []int) {
	req, classes := s.buildRequest()
	reps := make([]int, len(classes))
	for i, cc := range classes {
		reps[i] = cc.members[0]
	}
	return req, reps
}
