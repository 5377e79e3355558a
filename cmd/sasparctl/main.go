// Command sasparctl drives the simulated cluster interactively. It has
// four subcommands:
//
//	sasparctl run      — benchmark one workload against one SUT and
//	                     print the paper's metrics (the single-cell
//	                     version of cmd/figures)
//	sasparctl inspect  — print a workload's streams and queries, run a
//	                     SASPAR system on it with live telemetry (and
//	                     optionally a scenario script, checkpoints and
//	                     the autoscaler), and dump what the control
//	                     plane did: summary, event trace, checkpoint
//	                     store and a Prometheus-format metrics snapshot
//	sasparctl serve    — wall-clock serving mode: listen for real
//	                     tuples (binary framing on -addr, JSON on
//	                     -http) and drive the engine with them; -http
//	                     also serves /report and Prometheus /metrics
//	sasparctl blast    — loopback load generator: stream
//	                     workload-generated blocks at a serve instance
//	                     as fast as it accepts and report Mtuples/sec
//
// Invoking sasparctl with bare flags (no subcommand) behaves as "run",
// keeping older scripts working. The crash, checkpointed-recovery and
// flash-crowd experiments are cmd/figures -fig recovery, ckpt-recovery
// and elastic.
//
// Usage:
//
//	sasparctl run -workload tpch|ajoin|gcm -sut SASPAR+Flink|Flink|...
//	          [-queries N] [-nodes N] [-partitions N] [-groups N]
//	          [-rate R] [-warmup D] [-measure D] [-drift D] [-seed S]
//	          [-batch N]
//	sasparctl inspect [-workload W] [-queries N] [-nodes N] [-groups N]
//	          [-duration D] [-drift D] [-rate R] [-events N] [-seed S]
//	          [-batch N] [-script FILE] [-checkpoint D] [-autoscale N]
//	          [-nic B]
//	sasparctl serve [-addr HOST:PORT] [-http HOST:PORT] [-workload W]
//	          [-queries N] [-nodes N] [-groups N] [-tasks N] [-for D]
//	          [-ring N] [-blockrows N] [-seed S] [-batch N]
//	sasparctl blast -addr HOST:PORT [-workload W] [-queries N]
//	          [-tasks N] [-rows N] [-for D] [-blockrows N]
//	          [-report URL]
//
// A scenario script (internal/scenario) has one event per line, e.g.
// "6.5s crash node=2", "8s brownout node=1 for=2s factor=0.5" or
// "12s rate stream=0 rows=200"; a workload with its own rate schedule
// (flash) replays it beside the file's events.
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

	"saspar/internal/checkpoint"
	"saspar/internal/cliflags"
	"saspar/internal/core"
	"saspar/internal/driver"
	"saspar/internal/elastic"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/runtime"
	"saspar/internal/scenario"
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
	case "serve":
		serveCmd(args)
	case "blast":
		blastCmd(args)
	default:
		fail(fmt.Errorf("unknown subcommand %q (try run, inspect, serve, blast)", cmd))
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

// inspectCmd prints a workload's inventory, runs one SASPAR system on
// it with the telemetry registry attached — plus, when asked, a scenario
// script, checkpointing and the autoscaler — and dumps what the control
// plane did: the report snapshot, the structured event trace, the
// checkpoint store and the Prometheus-format metric dump.
func inspectCmd(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	var cf cliflags.Common
	var (
		wlName    = fs.String("workload", "ajoin", "workload: "+strings.Join(workload.Names(), ", "))
		queries   = fs.Int("queries", 8, "query count")
		nodes     = fs.Int("nodes", 4, "cluster nodes")
		groups    = fs.Int("groups", 32, "key groups")
		rate      = fs.Float64("rate", 4e6, "offered rate, tuples/s (per primary stream)")
		duration  = fs.Duration("duration", 20*vtime.Second, "virtual run time")
		drift     = fs.Duration("drift", 8*vtime.Second, "hot-key drift period (0 = stationary)")
		events    = fs.Int("events", 40, "trace events to print (0 = all)")
		script    = fs.String("script", "", "scenario script to replay (faults and rate changes, one event per line)")
		ckptEvery = fs.Duration("checkpoint", 0, "aligned-barrier checkpoint interval, virtual (0 = off); lists the snapshot store")
		autoscale = fs.Int("autoscale", 0, "node ceiling of the elastic autoscaler (0 = off)")
		nic       = fs.Float64("nic", 0, "per-node NIC bandwidth, bytes/s (0 = engine default)")
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
	if *nic > 0 {
		engCfg.NodeConfig.NICBytesPerSec = *nic
	}
	cf.Apply(&engCfg)

	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 4 * vtime.Second
	coreCfg.Opt = optimizer.Options{Timeout: 200e6}
	coreCfg.Obs = obs.New()
	coreCfg.Script = w.Schedule
	if *script != "" {
		text, err := os.ReadFile(*script)
		if err != nil {
			fail(err)
		}
		sc, err := scenario.Parse(string(text))
		if err != nil {
			fail(err)
		}
		coreCfg.Script = append(sc, w.Schedule...)
	}
	if *ckptEvery > 0 {
		coreCfg.Checkpoint = checkpoint.Config{Interval: *ckptEvery}
	}
	if *autoscale > 0 {
		coreCfg.Elastic = &core.ElasticConfig{
			Policy:       elastic.DefaultConfig(*nodes, *autoscale),
			PollInterval: 200 * vtime.Millisecond,
		}
	}

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

	printInventory(w)
	snap := sys.Snapshot()
	fmt.Printf("\nrun          %v virtual on %d nodes\n", *duration, *nodes)
	fmt.Printf("throughput   %s tuples/s   latency %v   sharing ratio %.2f\n",
		vtime.FormatRate(snap.Throughput), snap.AvgLatency.Round(vtime.Millisecond), snap.SharingRatio)
	fmt.Printf("optimizer    %d triggers (%d by drift), %d applied, %d skipped (%d gain, %d movement)\n",
		snap.Triggers, snap.DriftTriggers, snap.Applied, snap.SkippedPlans, snap.SkippedByGain, snap.SkippedByMove)
	fmt.Printf("solver       %d MIP solves, %d branch-and-bound nodes\n", snap.Solves, snap.NodesExplored)
	fmt.Printf("engine       %.0f tuples reshuffled, %d JIT compilations, wire %.1f MB\n",
		snap.Reshuffled, snap.JITCompiles, snap.Net.BytesNet/1e6)
	ts := sys.Engine().TickStats()
	fmt.Printf("ticks        %d, %d on more than one worker (latest on %d)\n", ts.Ticks, ts.ParallelTicks, ts.Workers)
	if coreCfg.Script.HasFaults() {
		fmt.Printf("faults       %d injected, %d detected, %d recovered, %.1f MB lost\n",
			snap.FaultsInjected, snap.FaultsDetected, snap.Recoveries, snap.LostBytes/1e6)
	}
	if *autoscale > 0 {
		fmt.Printf("cluster      %d live nodes (%d joins, %d drains)\n", snap.LiveNodes, snap.ElasticJoins, snap.ElasticDrains)
	}

	trace := sys.Trace()
	fmt.Printf("\n--- event trace (%d events) ---\n", len(trace))
	if *events > 0 && len(trace) > *events {
		fmt.Printf("... %d earlier events elided (-events 0 for all) ...\n", len(trace)-*events)
		trace = trace[len(trace)-*events:]
	}
	for _, e := range trace {
		fmt.Println(e)
	}

	if ck := sys.Checkpointer(); ck != nil {
		fmt.Printf("\n--- checkpoint store (%d completed, %.1f MB stored, %.1f MB restored) ---\n",
			snap.Checkpoints, snap.CheckpointBytes/1e6, snap.RestoredBytes/1e6)
		printStore(ck.Store())
	}

	fmt.Printf("\n--- metrics snapshot (Prometheus text format) ---\n")
	if err := coreCfg.Obs.WritePrometheus(os.Stdout); err != nil {
		fail(err)
	}
}

// printInventory lists a workload's streams and queries.
func printInventory(w *workload.Workload) {
	fmt.Printf("workload     %s: %d streams, %d queries\n", w.Name, len(w.Streams), len(w.Queries))
	for i, s := range w.Streams {
		fmt.Printf("stream %d     %-12s %2d columns, %3.0f B/tuple, offered %s tuples/s\n",
			i, s.Name, s.NumCols, s.BytesPerTuple, vtime.FormatRate(w.Rates[i]))
	}
	for _, q := range w.Queries {
		kind := "agg "
		if q.Kind == engine.OpJoin {
			kind = "join"
		}
		var ins []string
		for _, in := range q.Inputs {
			ins = append(ins, fmt.Sprintf("s%d key%v", in.Stream, in.Key))
		}
		fmt.Printf("query        %-10s %s  window %v/%v  %s\n",
			q.ID, kind, q.Window.Range, q.Window.Slide, strings.Join(ins, " ⋈ "))
	}
}

// printStore lists every retained checkpoint: id, full or delta (with
// its base), barrier time, barrier-to-alignment time, groups and size.
func printStore(st checkpoint.Store) {
	ids, err := st.List()
	if err != nil {
		fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "id\tkind\tbase\tbarrier\taligned in\tgroups\tMB")
	for _, id := range ids {
		s, err := st.Get(id)
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
