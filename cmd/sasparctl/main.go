// Command sasparctl drives the simulated cluster interactively. It has
// seven subcommands:
//
//	sasparctl run      — benchmark one workload against one SUT and
//	                     print the paper's metrics (the single-cell
//	                     version of cmd/figures)
//	sasparctl inspect  — run a SASPAR system with live telemetry
//	                     enabled and dump the control-plane event trace
//	                     plus a Prometheus-format metrics snapshot
//	sasparctl faults   — run seeded crash-recovery scenarios and report
//	                     time-to-recover and the sustained-throughput
//	                     dip while degraded
//	sasparctl checkpoints — run a system with the aligned-barrier
//	                     checkpoint coordinator armed (optionally with a
//	                     scripted crash) and list the snapshot store:
//	                     per-checkpoint id, kind, barrier-to-alignment
//	                     time, groups, and modelled bytes
//	sasparctl serve    — wall-clock serving mode: listen for real
//	                     tuples (binary framing on -addr, JSON on
//	                     -http) and drive the engine with them; -http
//	                     also serves /report and Prometheus /metrics
//	sasparctl blast    — loopback load generator: stream
//	                     workload-generated blocks at a serve instance
//	                     as fast as it accepts and report Mtuples/sec
//	sasparctl elastic  — run the flash-crowd workload against the
//	                     elastic autoscaler and dump the scale-out/in
//	                     episode: join/drain decisions, nodes vs time,
//	                     and the SLO-violation account
//
// Invoking sasparctl with bare flags (no subcommand) behaves as "run",
// keeping older scripts working.
//
// Usage:
//
//	sasparctl run -workload tpch|ajoin|gcm -sut SASPAR+Flink|Flink|...
//	          [-queries N] [-nodes N] [-partitions N] [-groups N]
//	          [-rate R] [-warmup D] [-measure D] [-drift D] [-seed S]
//	          [-batch N]
//	sasparctl inspect [-workload W] [-queries N] [-duration D]
//	          [-drift D] [-rate R] [-events N] [-seed S] [-batch N]
//	sasparctl faults [-seeds N] [-workers N] [-full] [-nodes N] [-rate R]
//	          [-batch N]
//	sasparctl checkpoints [-interval D] [-retention N] [-incremental]
//	          [-duration D] [-crash] [-dir PATH] [-seed S] [-batch N]
//	sasparctl serve [-addr HOST:PORT] [-http HOST:PORT] [-workload W]
//	          [-queries N] [-nodes N] [-groups N] [-tasks N] [-for D]
//	          [-ring N] [-blockrows N] [-seed S] [-batch N]
//	sasparctl blast -addr HOST:PORT [-workload W] [-queries N]
//	          [-tasks N] [-rows N] [-for D] [-blockrows N]
//	          [-report URL]
//	sasparctl elastic [-workload flash] [-queries N] [-nodes N]
//	          [-groups N] [-rate R] [-duration D] [-nic B]
//	          [-autoscale] [-autoscale-max N] [-autoscale-high W]
//	          [-autoscale-low W] [-autoscale-step N] [-autoscale-poll D]
//	          [-events N] [-seed S] [-batch N]
//
// -batch sets the generation block size of the columnar data plane
// (0 = the engine default of 64, 1 = tuple-at-a-time), a pure
// execution knob: output is byte-identical at any value. Tick workers
// have no flag: the engine sizes them itself (internal/engine/shard.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"saspar/internal/bench"
	"saspar/internal/checkpoint"
	"saspar/internal/cliflags"
	"saspar/internal/core"
	"saspar/internal/driver"
	"saspar/internal/elastic"
	"saspar/internal/engine"
	"saspar/internal/faults"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/runtime"
	"saspar/internal/spe"
	"saspar/internal/vtime"
	"saspar/internal/workload"

	// Blank imports run the workload registrations.
	_ "saspar/internal/ajoinwl"
	_ "saspar/internal/flashwl"
	_ "saspar/internal/gcm"
	_ "saspar/internal/tpch"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		runCmd(args)
	case "inspect":
		inspectCmd(args)
	case "faults":
		faultsCmd(args)
	case "checkpoints":
		checkpointsCmd(args)
	case "serve":
		serveCmd(args)
	case "blast":
		blastCmd(args)
	case "elastic":
		elasticCmd(args)
	default:
		fail(fmt.Errorf("unknown subcommand %q (try run, inspect, faults, checkpoints, serve, blast, elastic)", cmd))
	}
}

// serveCmd runs the wall-clock serving loop: the same engine + SASPAR
// stack as run/inspect, but fed by network ingest instead of
// synthesized tuples. TupleWeight is 1 — every served tuple is a real
// one.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var cf cliflags.Common
	var (
		addr      = fs.String("addr", "127.0.0.1:7420", "TCP listen address for binary-framing ingest (empty = disabled)")
		httpAddr  = fs.String("http", "127.0.0.1:7421", "HTTP listen address for /ingest, /report, /metrics (empty = disabled)")
		wlName    = fs.String("workload", "gcm", "workload schema and queries: "+strings.Join(workload.Names(), ", "))
		queries   = fs.Int("queries", 2, "query count")
		nodes     = fs.Int("nodes", 4, "cluster nodes")
		groups    = fs.Int("groups", 32, "key groups")
		tasks     = fs.Int("tasks", 1, "source tasks per stream (= ingest rings per stream)")
		runFor    = fs.Duration("for", 0, "wall-clock serving duration (0 = until interrupt)")
		ring      = fs.Int("ring", 64, "ingest ring capacity, blocks per (stream, task)")
		blockrows = fs.Int("blockrows", 4096, "rows per ingest block")
		greedyAt  = fs.Int("greedy-threshold", 0, "groups×partitions size at which the optimizer switches to the one-pass greedy tier (0 = default, negative = never)")
		refineAt  = fs.Float64("refine-drift", 0, "per-group drift above which a drift-fired round re-places only the moved groups (0 = always full re-solve)")
	)
	cf.Register(fs)
	cf.RegisterSeed(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Window:  engine.WindowSpec{Range: 4 * vtime.Second, Slide: 4 * vtime.Second},
		Rate:    1e6, // placeholder past validation; serving ignores rates
	})
	if err != nil {
		fail(err)
	}

	engCfg := engine.DefaultConfig()
	engCfg.Nodes = *nodes
	engCfg.NumPartitions = 2 * *nodes
	engCfg.NumGroups = *groups
	engCfg.SourceTasks = *tasks
	engCfg.TupleWeight = 1
	// Serving answers queries with concrete window state — metered
	// approximations are for the virtual-time experiments only.
	engCfg.ExactWindows = true
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 8 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 200e6, GreedyThreshold: *greedyAt}
	coreCfg.RefineDrift = *refineAt
	coreCfg.Obs = obs.New()

	srv, err := runtime.NewServer(runtime.Config{
		Workload:   w,
		Engine:     engCfg,
		Core:       coreCfg,
		Addr:       *addr,
		HTTPAddr:   *httpAddr,
		RingBlocks: *ring,
		BlockRows:  *blockrows,
	})
	if err != nil {
		fail(err)
	}
	if err := srv.Start(); err != nil {
		fail(err)
	}
	fmt.Printf("serving %s (%d queries) — tcp %s  http %s\n", w.Name, len(w.Queries), srv.Addr(), srv.HTTPAddr())

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	if *runFor > 0 {
		select {
		case <-time.After(*runFor):
		case <-interrupt:
		}
	} else {
		<-interrupt
	}
	srv.Stop()

	rep := srv.Report()
	fmt.Printf("served       %d rows in %.1fs wall (%.2f Mtuples/s), virtual clock %s\n",
		rep.IngestedRows, rep.UptimeSec, rep.RowsPerSec/1e6, rep.VirtualTime)
	fmt.Printf("ingest       %0.f blocks, %.0f bounced off full rings, %.0f recycled\n",
		rep.IngestBlocks, rep.RingFull, rep.Recycled)
	fmt.Printf("optimizer    %d triggers, %d plans applied, %d stale, last solve %.0f ms\n",
		rep.Triggers, rep.Applied, rep.StalePlans, rep.LastSolveMs)
	for _, q := range rep.Queries {
		fmt.Printf("query        %-20s %d results\n", q.ID, q.Results)
	}
}

// blastCmd floods a serve instance over loopback with
// workload-generated blocks and reports the sustained ingest rate.
func blastCmd(args []string) {
	fs := flag.NewFlagSet("blast", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7420", "serve instance's TCP ingest address")
		wlName    = fs.String("workload", "gcm", "workload supplying the generators (must match the served schema)")
		queries   = fs.Int("queries", 2, "query count (schema selection only)")
		tasks     = fs.Int("tasks", 1, "connections per stream (<= the server's -tasks)")
		rows      = fs.Int64("rows", 0, "stop after this many rows in total (0 = run for -for)")
		runFor    = fs.Duration("for", 2*time.Second, "wall-clock duration when -rows is 0")
		blockrows = fs.Int("blockrows", 4096, "rows per frame")
		report    = fs.String("report", "", "after blasting, fetch this serve /report URL and print it")
	)
	fs.Parse(args)

	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Window:  engine.WindowSpec{Range: 4 * vtime.Second, Slide: 4 * vtime.Second},
		Rate:    1e6,
	})
	if err != nil {
		fail(err)
	}
	res, err := runtime.Blast(runtime.BlastConfig{
		Addr:      *addr,
		Workload:  w,
		Tasks:     *tasks,
		Rows:      *rows,
		Duration:  *runFor,
		BlockRows: *blockrows,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("blast        %d rows in %v (%.2f Mtuples/s accepted)\n",
		res.Rows, res.Elapsed.Round(time.Millisecond), res.MtuplesPerSec)

	if *report != "" {
		// Give the serve loop a moment to drain what TCP already buffered.
		time.Sleep(300 * time.Millisecond)
		resp, err := http.Get(*report)
		if err != nil {
			fail(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			fail(err)
		}
		fmt.Printf("report       %s\n", strings.TrimSpace(string(body)))
	}
}

// elasticCmd runs the flash-crowd workload against the elastic
// autoscaler and narrates the episode: every join/drain decision from
// the trace, the nodes-versus-time strip, and the SLO-violation
// account. -autoscale=false runs the same crowd against the frozen
// seed cluster so the two invocations bracket what elasticity buys.
func elasticCmd(args []string) {
	fs := flag.NewFlagSet("elastic", flag.ExitOnError)
	var cf cliflags.Common
	var (
		wlName    = fs.String("workload", "flash", "workload: "+strings.Join(workload.Names(), ", "))
		queries   = fs.Int("queries", 4, "query count")
		nodes     = fs.Int("nodes", 4, "seed cluster nodes")
		groups    = fs.Int("groups", 32, "key groups")
		rate      = fs.Float64("rate", 10000, "calm-phase offered rate, tuples/s (the workload's schedule scales it)")
		duration  = fs.Duration("duration", 60*vtime.Second, "virtual run time")
		nic       = fs.Float64("nic", 1<<20, "per-node NIC bandwidth, bytes/s (sized so the flash saturates the seed cluster)")
		autoscale = fs.Bool("autoscale", true, "run the elastic control loop (false = frozen seed cluster baseline)")
		asMax     = fs.Int("autoscale-max", 0, "node ceiling the autoscaler may grow to (0 = nodes+4)")
		asHigh    = fs.Float64("autoscale-high", 0.05, "high-water backpressure fraction that votes scale-out")
		asLow     = fs.Float64("autoscale-low", 0.01, "low-water backpressure fraction that votes scale-in")
		asStep    = fs.Int("autoscale-step", 2, "max nodes joined or drained per decision")
		asPoll    = fs.Duration("autoscale-poll", 200*vtime.Millisecond, "virtual interval between autoscaler polls")
		events    = fs.Int("events", 0, "elastic trace events to print (0 = all)")
	)
	cf.Register(fs)
	cf.RegisterSeed(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Rate:    *rate,
	})
	if err != nil {
		fail(err)
	}

	engCfg := engine.DefaultConfig()
	engCfg.Nodes = *nodes
	engCfg.NumPartitions = 2 * *nodes
	engCfg.NumGroups = *groups
	engCfg.SourceTasks = 2 // keep high-ID nodes drainable
	engCfg.ExactWindows = false
	engCfg.NodeConfig.NICBytesPerSec = *nic
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 8 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 200e6}
	coreCfg.Obs = obs.New()
	pol := elastic.Config{
		MinNodes:      *nodes,
		MaxNodes:      *asMax,
		HighWater:     *asHigh,
		LowWater:      *asLow,
		UpPolls:       2,
		DownPolls:     3,
		CooldownPolls: 3,
		MaxStep:       *asStep,
	}
	if pol.MaxNodes <= 0 {
		pol.MaxNodes = *nodes + 4
	}
	if *autoscale {
		coreCfg.Elastic = &core.ElasticConfig{Policy: pol, PollInterval: *asPoll}
	}

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		fail(err)
	}
	eng := sys.Engine()
	w.ApplyRatesAt(eng, eng.Clock(), 1)

	// Drive in half-second steps, re-applying the workload's rate
	// schedule and accounting virtual seconds spent above the policy's
	// high-water mark (the SLO-forfeit operating region).
	const sample = vtime.Second / 2
	horizon := eng.Clock().Add(vtime.Duration(*duration))
	var nodesSeries []int
	var violationSec float64
	peak := eng.LiveNodes()
	maxQ := eng.Network().Config().MaxQueueBytes
	for eng.Clock() < horizon {
		w.ApplyRatesAt(eng, eng.Clock(), 1)
		if err := sys.Run(sample); err != nil {
			fail(err)
		}
		live := eng.LiveNodes()
		if live > peak {
			peak = live
		}
		if len(nodesSeries) == 0 || eng.Clock().Sub(vtime.Time(0))%vtime.Second < sample {
			nodesSeries = append(nodesSeries, live)
		}
		pressure := eng.Network().QueuePressure()
		if maxQ > 0 && live > 0 {
			if q := eng.InboxBytes() / (float64(live) * maxQ); q > pressure {
				pressure = q
			}
		}
		if pressure > pol.HighWater {
			violationSec += sample.Seconds()
		}
	}

	snap := sys.Snapshot()
	mode := "autoscaled"
	if !*autoscale {
		mode = "frozen (no autoscaler)"
	}
	fmt.Printf("workload     %s (%d queries), %v virtual, %s\n", w.Name, len(w.Queries), *duration, mode)
	fmt.Printf("cluster      %d seed nodes, peak %d, final %d (%d joins, %d drains)\n",
		*nodes, peak, snap.LiveNodes, snap.ElasticJoins, snap.ElasticDrains)
	fmt.Printf("SLO          %.1f virtual seconds above the %.2f high-water mark\n", violationSec, pol.HighWater)
	fmt.Printf("integrity    %.1f MB lost (must be 0.0 across drains)\n", snap.LostBytes/1e6)

	var trace []obs.Event
	for _, ev := range sys.Trace() {
		switch ev.Kind {
		case obs.EvElasticDecision, obs.EvElasticJoin, obs.EvElasticDrainStart, obs.EvElasticDrainDone:
			trace = append(trace, ev)
		}
	}
	fmt.Printf("\n--- elastic trace (%d events) ---\n", len(trace))
	if *events > 0 && len(trace) > *events {
		fmt.Printf("... %d earlier events elided (-events 0 for all) ...\n", len(trace)-*events)
		trace = trace[len(trace)-*events:]
	}
	for _, ev := range trace {
		fmt.Println(ev)
	}

	fmt.Printf("\nnodes vs time (one digit per virtual second):\n  ")
	for _, n := range nodesSeries {
		fmt.Printf("%d", n%10)
	}
	fmt.Println()
}

// faultsCmd runs the crash-recovery experiment: seeded scripted node
// losses against a running SASPAR system, fanned over the run-matrix
// pool, reporting per-seed time-to-recover and the sustained-throughput
// dip while degraded.
func faultsCmd(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	var cf cliflags.Common
	var (
		seeds = fs.Int("seeds", 3, "independent crash scenarios to run")
		full  = fs.Bool("full", false, "run at paper scale (slow)")
		nodes = fs.Int("nodes", 0, "override cluster nodes (0 = scale default)")
		rate  = fs.Float64("rate", 0, "override offered rate, tuples/s (0 = scale default)")
	)
	cf.Register(fs)
	cf.RegisterWorkers(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	sc := bench.Quick()
	if *full {
		sc = bench.Paper()
	}
	sc.Workers = cf.Workers
	sc.Batch = cf.Batch
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *rate > 0 {
		sc.Rate = *rate
	}

	rows, err := bench.Recovery(sc, *seeds)
	if err != nil {
		fail(err)
	}
	bench.PrintRecovery(os.Stdout, rows)

	var recover, dip float64
	for _, r := range rows {
		recover += r.RecoverMs
		dip += r.DipPct
	}
	n := float64(len(rows))
	fmt.Printf("\ntime-to-recover        %.0f ms mean over %d scenarios\n", recover/n, len(rows))
	fmt.Printf("sustained-throughput   dipped to %.0f%% of pre-fault mean while degraded\n", dip/n)
}

// checkpointsCmd runs one SASPAR system with the checkpoint
// coordinator armed and dumps the snapshot store afterwards. With
// -crash it also scripts a mid-run node loss so the listing shows the
// restore the recovery loop performed.
func checkpointsCmd(args []string) {
	fs := flag.NewFlagSet("checkpoints", flag.ExitOnError)
	var cf cliflags.Common
	var (
		wlName      = fs.String("workload", "gcm", "workload: "+strings.Join(workload.Names(), ", "))
		queries     = fs.Int("queries", 2, "query count")
		nodes       = fs.Int("nodes", 4, "cluster nodes")
		groups      = fs.Int("groups", 32, "key groups")
		rate        = fs.Float64("rate", 40e6, "offered rate, tuples/s (per primary stream)")
		duration    = fs.Duration("duration", 30*vtime.Second, "virtual run time")
		interval    = fs.Duration("interval", 2*vtime.Second, "checkpoint interval (virtual)")
		retention   = fs.Int("retention", 0, "checkpoints to retain (0 = default)")
		incremental = fs.Bool("incremental", false, "store per-key-group deltas instead of full snapshots")
		crash       = fs.Bool("crash", false, "script a node crash mid-run and show the restore")
		dir         = fs.String("dir", "", "persist snapshots to this directory (default: in-memory)")
	)
	cf.Register(fs)
	cf.RegisterSeed(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	// A zero interval means "checkpointing off" to core.Config.Validate,
	// which would leave the coordinator nil and this command pointless.
	if *interval <= 0 {
		fail(fmt.Errorf("checkpoints: -interval must be positive, got %v", *interval))
	}

	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Window:  engine.WindowSpec{Range: 4 * vtime.Second, Slide: 4 * vtime.Second},
		Rate:    *rate,
	})
	if err != nil {
		fail(err)
	}

	engCfg := engine.DefaultConfig()
	engCfg.Nodes = *nodes
	engCfg.NumPartitions = 2 * *nodes
	engCfg.NumGroups = *groups
	engCfg.SourceTasks = 2
	engCfg.ExactWindows = false
	engCfg.TupleWeight = 1000
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 8 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 200e6}
	coreCfg.Obs = obs.New()
	coreCfg.Checkpoint = checkpoint.Config{
		Interval:    *interval,
		Retention:   *retention,
		Incremental: *incremental,
	}
	if *dir != "" {
		st, err := checkpoint.NewFileStore(*dir)
		if err != nil {
			fail(err)
		}
		coreCfg.Checkpoint.Store = st
	}
	if *crash {
		scenario, err := faults.Generate(faults.Config{
			Nodes: *nodes, Seed: cf.Seed,
			Crashes: 1,
			Start:   *duration / 2, Span: 2 * vtime.Second,
		})
		if err != nil {
			fail(err)
		}
		coreCfg.FaultScenario = scenario
	}

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		fail(err)
	}
	w.ApplyRates(sys.Engine(), 1)
	if err := sys.Run(*duration); err != nil {
		fail(err)
	}
	if *crash {
		// Give the recovery loop room to finish the evacuation+restore.
		deadline := sys.Engine().Clock().Add(5 * *duration)
		for sys.Engine().Clock() < deadline {
			if snap := sys.Snapshot(); snap.Recoveries > 0 && !snap.RecoveryPending {
				break
			}
			sys.Run(2 * vtime.Second)
		}
	}

	ck := sys.Checkpointer()
	snap := sys.Snapshot()
	fmt.Printf("workload     %s (%d queries), %v virtual on %d nodes\n", w.Name, len(w.Queries), *duration, *nodes)
	fmt.Printf("checkpoints  %d completed, %.1f MB stored (interval %v, retention shown below)\n",
		snap.Checkpoints, snap.CheckpointBytes/1e6, ck.Interval())
	if *crash {
		// The restore source comes from the trace: LatestBefore picks
		// the newest checkpoint completed before detection, which is
		// usually older than LastID — checkpoints keep completing while
		// recovery runs.
		src := ""
		for _, ev := range sys.Trace() {
			if ev.Kind != obs.EvCheckpointRestore {
				continue
			}
			for _, kv := range ev.Attrs {
				if kv.K == "checkpoint" {
					src = kv.V
				}
			}
		}
		if src == "" {
			fmt.Printf("crash        lost %.1f MB gross, no checkpoint restore performed\n",
				snap.LostBytes/1e6)
		} else {
			fmt.Printf("crash        lost %.1f MB gross, restored %.1f MB from checkpoint %s\n",
				snap.LostBytes/1e6, snap.RestoredBytes/1e6, src)
		}
	}

	ids, err := ck.Store().List()
	if err != nil {
		fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nid\tkind\tbase\tbarrier\taligned in\tgroups\tMB")
	for _, id := range ids {
		s, err := ck.Store().Get(id)
		if err != nil {
			fail(err)
		}
		kind, base := "full", "-"
		if !s.Full {
			kind, base = "delta", fmt.Sprintf("%d", s.BaseID)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%v\t%v\t%d\t%.1f\n",
			s.ID, kind, base, s.Barrier,
			s.CompletedAt.Sub(s.Barrier).Round(vtime.Millisecond),
			len(s.Groups), s.Bytes/1e6)
	}
	tw.Flush()
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var cf cliflags.Common
	var (
		wlName     = fs.String("workload", "tpch", "workload: "+strings.Join(workload.Names(), ", "))
		sutName    = fs.String("sut", "SASPAR+Flink", "system under test, e.g. Flink, SASPAR+AJoin")
		queries    = fs.Int("queries", 8, "query count (tpch: <=14, gcm: <=2)")
		nodes      = fs.Int("nodes", 8, "cluster nodes")
		partitions = fs.Int("partitions", 32, "partition slots")
		groups     = fs.Int("groups", 128, "key groups")
		rate       = fs.Float64("rate", 40e6, "offered rate, tuples/s (per primary stream)")
		warmup     = fs.Duration("warmup", 20*vtime.Second, "virtual warm-up")
		measure    = fs.Duration("measure", 20*vtime.Second, "virtual measurement window")
		drift      = fs.Duration("drift", 0, "hot-key drift period (0 = stationary)")
		reps       = fs.Int("reps", 1, "repetitions to average")
		greedyAt   = fs.Int("greedy-threshold", 0, "groups×partitions size at which the optimizer switches to the one-pass greedy tier (0 = default, negative = never)")
	)
	cf.Register(fs)
	cf.RegisterSeed(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	sut, err := parseSUT(*sutName)
	if err != nil {
		fail(err)
	}
	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Window:  engine.WindowSpec{Range: 4 * vtime.Second, Slide: 4 * vtime.Second},
		Rate:    *rate,
		Drift:   *drift,
	})
	if err != nil {
		fail(err)
	}

	engCfg := engine.DefaultConfig()
	engCfg.Nodes = *nodes
	engCfg.NumPartitions = *partitions
	engCfg.NumGroups = *groups
	engCfg.SourceTasks = *nodes
	engCfg.TupleWeight = 1000
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 8 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 500e6, GreedyThreshold: *greedyAt}

	res, err := driver.Run(driver.Config{
		SUT:         sut,
		Workload:    w,
		Engine:      engCfg,
		Core:        coreCfg,
		Warmup:      *warmup,
		Measure:     *measure,
		Repetitions: *reps,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload        %s (%d queries)\n", w.Name, len(w.Queries))
	fmt.Printf("SUT             %s\n", res.SUT)
	fmt.Printf("throughput      %s tuples/s (std %s)\n", vtime.FormatRate(res.Throughput), vtime.FormatRate(res.ThroughputStd))
	fmt.Printf("latency         %v avg, %v std\n", res.AvgLatency.Round(vtime.Millisecond), res.LatencyStd.Round(vtime.Millisecond))
	fmt.Printf("wire traffic    %.1f MB over the measurement window (utilization %.0f%%)\n", res.BytesNet/1e6, res.NetUtil*100)
	fmt.Printf("reshuffled      %.0f tuples sent back to sources\n", res.Reshuffled)
	fmt.Printf("JIT             %.0f compilations, %v\n", res.JITCompiles, res.JITTime)
	fmt.Printf("optimizer       %d triggers, %d plans applied\n", res.Triggers, res.Applied)
}

// inspectCmd runs one SASPAR system with the telemetry registry
// attached and dumps what the control plane did: the report snapshot,
// the structured event trace, and the Prometheus-format metric dump.
func inspectCmd(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	var cf cliflags.Common
	var (
		wlName   = fs.String("workload", "ajoin", "workload: "+strings.Join(workload.Names(), ", "))
		queries  = fs.Int("queries", 8, "query count")
		nodes    = fs.Int("nodes", 4, "cluster nodes")
		groups   = fs.Int("groups", 32, "key groups")
		rate     = fs.Float64("rate", 4e6, "offered rate, tuples/s (per primary stream)")
		duration = fs.Duration("duration", 20*vtime.Second, "virtual run time")
		drift    = fs.Duration("drift", 8*vtime.Second, "hot-key drift period (0 = stationary)")
		events   = fs.Int("events", 40, "trace events to print (0 = all)")
	)
	cf.Register(fs)
	cf.RegisterSeed(fs)
	fs.Parse(args)
	if err := cf.Validate(); err != nil {
		fail(err)
	}

	w, err := workload.Open(*wlName, workload.Options{
		Queries: *queries,
		Window:  engine.WindowSpec{Range: 4 * vtime.Second, Slide: 4 * vtime.Second},
		Rate:    *rate,
		Drift:   *drift,
	})
	if err != nil {
		fail(err)
	}

	engCfg := engine.DefaultConfig()
	engCfg.Nodes = *nodes
	engCfg.NumPartitions = 2 * *nodes
	engCfg.NumGroups = *groups
	engCfg.SourceTasks = *nodes
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 4 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 200e6}
	coreCfg.Obs = obs.New()

	sys, err := core.New(engCfg, w.Streams, w.Queries, coreCfg)
	if err != nil {
		fail(err)
	}
	w.ApplyRates(sys.Engine(), 1)

	m := sys.Engine().Metrics()
	m.StartMeasurement(0)
	if err := sys.Run(*duration); err != nil {
		fail(err)
	}
	m.StopMeasurement(sys.Engine().Clock())

	snap := sys.Snapshot()
	fmt.Printf("workload     %s (%d queries), %v virtual on %d nodes\n", w.Name, len(w.Queries), *duration, *nodes)
	fmt.Printf("throughput   %s tuples/s   latency %v   sharing ratio %.2f\n",
		vtime.FormatRate(snap.Throughput), snap.AvgLatency.Round(vtime.Millisecond), snap.SharingRatio)
	fmt.Printf("optimizer    %d triggers (%d by drift), %d applied, %d skipped (%d gain, %d movement)\n",
		snap.Triggers, snap.DriftTriggers, snap.Applied, snap.SkippedPlans, snap.SkippedByGain, snap.SkippedByMove)
	fmt.Printf("solver       %d MIP solves, %d branch-and-bound nodes\n", snap.Solves, snap.NodesExplored)
	fmt.Printf("engine       %.0f tuples reshuffled, %d JIT compilations, wire %.1f MB\n",
		snap.Reshuffled, snap.JITCompiles, snap.Net.BytesNet/1e6)
	ts := sys.Engine().TickStats()
	fmt.Printf("ticks        %d, %d on more than one worker (latest on %d)\n", ts.Ticks, ts.ParallelTicks, ts.Workers)

	trace := sys.Trace()
	fmt.Printf("\n--- event trace (%d events) ---\n", len(trace))
	if *events > 0 && len(trace) > *events {
		fmt.Printf("... %d earlier events elided (-events 0 for all) ...\n", len(trace)-*events)
		trace = trace[len(trace)-*events:]
	}
	for _, e := range trace {
		fmt.Println(e)
	}

	fmt.Printf("\n--- metrics snapshot (Prometheus text format) ---\n")
	if err := coreCfg.Obs.WritePrometheus(os.Stdout); err != nil {
		fail(err)
	}
}

func parseSUT(s string) (spe.SUT, error) {
	for _, sut := range spe.AllSUTs() {
		if strings.EqualFold(sut.Name(), s) {
			return sut, nil
		}
	}
	return spe.SUT{}, fmt.Errorf("unknown SUT %q (try Flink, AJoin, Prompt, SASPAR+Flink, ...)", s)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sasparctl:", err)
	os.Exit(1)
}
