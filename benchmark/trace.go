package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	srt "saspar/internal/runtime"
	"saspar/internal/stats"
	"saspar/internal/tpch"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call — nothing inside the program changes for tracing.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`          // index of the enclosing span in the file, -1 for a root
	Tick   int    `json:"tick"`            // serve-loop iteration the span belongs to: the spans of one tick share it
	Class  string `json:"class,omitempty"` // tick spans only: solve, close, route or idle
	Rows   int    `json:"rows,omitempty"`  // rows decoded, offered or claimed by the call
}

// Tick classes, decided from outside by the change in the public
// counters across the tick.
const (
	classSolve = "solve" // the optimizer ran (Snapshot().Triggers advanced)
	classClose = "close" // a window result became visible (result count grew)
	classIdle  = "idle"  // no row was claimed
	classRoute = "route" // rows were claimed and routed, nothing else
)

// classify names a tick from the counter deltas across it. A solve
// outranks a close, which outranks everything else: the class names the
// most expensive thing the tick did.
func classify(triggers, results int, rows int64) string {
	switch {
	case triggers > 0:
		return classSolve
	case results > 0:
		return classClose
	case rows == 0:
		return classIdle
	}
	return classRoute
}

// tracer keeps spans in memory; they are written out when the replay
// ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, tick int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Tick: tick, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".trace.json")
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	fmt.Printf("  replay: %d spans written to %s\n", len(t.spans), path)
	return os.WriteFile(path, b, 0o644)
}

// tracedFeed wraps an ingest queue's consumer side so the engine's
// Poll and Release calls, made from inside System.Run, are spans too.
type tracedFeed struct {
	q      *srt.BlockQueue
	tr     *tracer
	parent *int // the running tick's span
	tick   *int
	busy   time.Duration // time in Poll calls that returned a block, and in Release
	blocks int
}

func (f *tracedFeed) Poll() *engine.TupleBlock {
	s := f.tr.begin("runtime.ring.poll", *f.parent, *f.tick)
	b := f.q.Poll()
	d := f.tr.end(s)
	if b != nil {
		f.tr.spans[s].Rows = b.Len()
		f.busy += d
		f.blocks++
	}
	return b
}

func (f *tracedFeed) Release(b *engine.TupleBlock) {
	s := f.tr.begin("runtime.ring.release", *f.parent, *f.tick)
	f.q.Release(b)
	f.busy += f.tr.end(s)
}

// tickTotals accumulates the ticks of one class.
type tickTotals struct {
	n       int
	dur     time.Duration
	rows    int64
	results int
}

func (t *tickTotals) add(d time.Duration, rows int64, results int) {
	t.n++
	t.dur += d
	t.rows += rows
	t.results += results
}

// tickTable holds the ticks of a replay by class.
type tickTable map[string]*tickTotals

func (tt tickTable) add(class string, d time.Duration, rows int64, results int) {
	if tt[class] == nil {
		tt[class] = &tickTotals{}
	}
	tt[class].add(d, rows, results)
}

// report prints where the replay's wall time went and derives the core
// layer's metrics: the cost per row of the ticks that moved rows and did
// not solve, and the solve ticks' mean length and share of the replay.
func (tt tickTable) report(m map[string]float64, wall time.Duration, rows int64) {
	m["replay.rows_per_s"] = float64(rows) / wall.Seconds()
	fmt.Printf("  replay: %d rows in %.3f s (%.0f rows/s)\n", rows, wall.Seconds(), m["replay.rows_per_s"])
	var work tickTotals
	for _, c := range []string{classSolve, classClose, classRoute, classIdle} {
		t := tt[c]
		if t == nil {
			continue
		}
		fmt.Printf("  replay: %-5s ticks %5d, %6.1f%% of replay wall time, %d rows\n",
			c, t.n, 100*t.dur.Seconds()/wall.Seconds(), t.rows)
		switch c {
		case classSolve:
			m["core.solve_tick.ms"] = t.dur.Seconds() * 1e3 / float64(t.n)
			m["core.solve_tick.share"] = t.dur.Seconds() / wall.Seconds()
		case classClose, classRoute:
			work.dur += t.dur
			work.rows += t.rows
		}
	}
	if work.rows > 0 {
		m["core.tick.ns_per_row"] = float64(work.dur) / float64(work.rows)
	}
}

// countResults is the number of window results the engine has emitted.
func countResults(eng *engine.Engine) int {
	n := 0
	for qi := 0; qi < eng.NumQueries(); qi++ {
		n += len(eng.Results(qi))
	}
	return n
}

// installCollector gives a bare engine the statistics collector the
// way core.New installs it.
func installCollector(eng *engine.Engine) {
	cfg := eng.Config()
	every := core.DefaultConfig().SampleEvery
	eng.SetSampler(stats.NewCollector(eng.NumStreams(), cfg.NumGroups, float64(every)*cfg.TupleWeight), every)
}

// replayServe replays a serving workload's frames on one goroutine
// through the public calls runtime.Server makes, with a span around
// each. Its loop mirrors Server.loop — ticks back to back while blocks
// are pending, IdleSleep otherwise — and the frames arrive as they do
// in the end-to-end run: as fast as the rings take them (closed loop)
// or on the schedule (open loop), after the same idle run-up of the
// virtual clock that the end-to-end run is phase-locked to.
func replayServe(spec *serveSpec, seed int64, size passSize, outDir string) (*repResult, error) {
	streams := spec.wl.Streams
	frames := size.warmFrames + size.measFrames
	res := &repResult{Workload: spec.name, Attempted: frames * len(streams), Metrics: map[string]float64{}}
	inputs, err := encodeInputs(spec, seed)
	if err != nil {
		return nil, err
	}

	// Wired as runtime.NewServer wires it.
	reg := obs.New()
	sys, err := core.New(serveEngineConfig(), streams, spec.wl.Queries, serveCoreConfig(reg))
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	tick := eng.Config().Tick
	tr := &tracer{}
	parent, iter := -1, 0
	feeds := make([]*tracedFeed, len(streams))
	for si, def := range streams {
		q := srt.NewBlockQueue(serveRingBlocks, serveBlockRows, def.NumCols, reg, engine.StreamID(si), 0)
		feeds[si] = &tracedFeed{q: q, tr: tr, parent: &parent, tick: &iter}
		if err := eng.SetBlockFeed(engine.StreamID(si), 0, feeds[si]); err != nil {
			return nil, err
		}
	}

	// Idle run-up to the phase the end-to-end passes start at.
	if err := sys.Run(startPhase); err != nil {
		return nil, err
	}

	tr.epoch = time.Now()
	root := tr.begin("replay", -1, 0)
	sch := schedule{start: tr.epoch, rows: spec.frameRows, rate: spec.rate}
	sent := make([]int, len(streams))
	var sentRows int64
	var decode, offer time.Duration
	var rd bytes.Reader
	var scratch []byte
	totals := tickTable{}
	for eng.GeneratedTuples() < int64(frames*spec.frameRows*len(streams)) {
		iter++
		// Ingest: what the connection goroutines would have queued by now.
		feed := tr.begin("replay.feed", root, iter)
		for si, in := range inputs {
			q := feeds[si].q
			for sent[si] < frames && q.Pending() < serveRingBlocks {
				if spec.open && time.Now().Before(sch.due(sent[si])) {
					break
				}
				b := q.Get()
				rd.Reset(in.frame(sent[si]))
				s := tr.begin("runtime.wire.decode", feed, iter)
				rows, err := srt.ReadFrame(&rd, b, in.cols, &scratch)
				decode += tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("replay decode: %w", err)
				}
				tr.spans[s].Rows = rows
				s = tr.begin("runtime.ring.offer", feed, iter)
				ok := q.Offer(b)
				offer += tr.end(s)
				if !ok {
					return nil, fmt.Errorf("replay: ring refused a block with %d pending", q.Pending())
				}
				sent[si]++
				sentRows += int64(rows)
			}
		}
		tr.end(feed)

		pending := false
		for _, f := range feeds {
			pending = pending || f.q.Pending() > 0
		}
		trig0, res0, rows0 := sys.Snapshot().Triggers, countResults(eng), eng.GeneratedTuples()
		parent = tr.begin("core.tick", root, iter)
		err := sys.Run(tick)
		d := tr.end(parent)
		if err != nil {
			return nil, err
		}
		rows, results := eng.GeneratedTuples()-rows0, countResults(eng)-res0
		class := classify(sys.Snapshot().Triggers-trig0, results, rows)
		tr.spans[parent].Class, tr.spans[parent].Rows = class, int(rows)
		totals.add(class, d, rows, results)
		if !pending {
			s := tr.begin("replay.idle_sleep", root, iter)
			time.Sleep(time.Millisecond) // runtime.Config.IdleSleep's default
			tr.end(s)
		}
	}
	wall := tr.end(root)

	// Drain with idle ticks, then the same check as the end-to-end run.
	if err := sys.Run(drainSpan(spec, eng.Config().WatermarkLag) + tick); err != nil {
		return nil, err
	}
	checkResults(res, spec, eng, inputs, sent, sentRows)

	m := res.Metrics
	totals.report(m, wall, sentRows)
	m["runtime.wire.decode.ns_per_row"] = float64(decode) / float64(sentRows)
	blocks, handoff := 0, offer
	for _, f := range feeds {
		blocks += f.blocks
		handoff += f.busy
	}
	m["runtime.ring.handoff.ns_per_block"] = float64(handoff) / float64(blocks)

	// The solver timed on its own, the kernels, and the same frames
	// through a bare engine with and without the statistics collector.
	solverMetrics(m, sys, serveCoreConfig(nil).Opt)
	def := streams[0]
	kernelMetrics(m, def, def.NewSource(int(seed)), spec.frameRows, inputKeys(spec.wl.Queries, 0), eng.Space())
	sys, eng, feeds = nil, nil, nil // the replays below must not pay for collecting this system
	bare, sampled, err := replayEngines(spec, inputs, frames)
	if err != nil {
		return nil, err
	}
	engineMetrics(m, bare, sampled)
	if v, ok := m["core.tick.ns_per_row"]; ok {
		m["core.overhead.ns_per_row"] = v - m["engine.tick.ns_per_row"]
	}

	return res, tr.write(outDir, spec.name, seed)
}

// engineReplay is what one pass of frames through a bare engine cost.
type engineReplay struct {
	all, route, closing tickTotals
}

// replayEngine pushes the frames through engine.New alone — shared
// partitioning on, no control loop — optionally with a statistics
// collector installed the way core installs it.
func replayEngine(spec *serveSpec, inputs []*input, frames int, sample bool) (*engineReplay, error) {
	cfg := serveEngineConfig()
	cfg.Shared = true
	eng, err := engine.New(cfg, spec.wl.Streams, spec.wl.Queries)
	if err != nil {
		return nil, err
	}
	if sample {
		installCollector(eng)
	}
	queues := make([]*srt.BlockQueue, len(inputs))
	for si, in := range inputs {
		queues[si] = srt.NewBlockQueue(serveRingBlocks, serveBlockRows, in.cols, nil, engine.StreamID(si), 0)
		if err := eng.SetBlockFeed(engine.StreamID(si), 0, queues[si]); err != nil {
			return nil, err
		}
	}
	var out engineReplay
	var rd bytes.Reader
	var scratch []byte
	sent := make([]int, len(inputs))
	total := int64(frames * spec.frameRows * len(inputs))
	for eng.GeneratedTuples() < total {
		for si, in := range inputs {
			for q := queues[si]; sent[si] < frames && q.Pending() < serveRingBlocks; sent[si]++ {
				b := q.Get()
				rd.Reset(in.frame(sent[si]))
				if _, err := srt.ReadFrame(&rd, b, in.cols, &scratch); err != nil {
					return nil, err
				}
				q.Offer(b)
			}
		}
		res0, rows0 := countResults(eng), eng.GeneratedTuples()
		t := time.Now()
		if err := eng.Run(cfg.Tick); err != nil {
			return nil, err
		}
		d := time.Since(t)
		rows, results := eng.GeneratedTuples()-rows0, countResults(eng)-res0
		class := &out.route
		if results > 0 {
			class = &out.closing
		}
		out.all.add(d, rows, results)
		class.add(d, rows, results)
	}
	return &out, nil
}

// replayEngines runs the bare-engine replay twice each way, alternating,
// after a collection each, and keeps the faster run of either kind: the
// difference between the two is a few percent of a tick, less than what
// a collection of the previous replay's window state costs the next.
func replayEngines(spec *serveSpec, inputs []*input, frames int) (bare, sampled *engineReplay, err error) {
	for round := 0; round < 2; round++ {
		for _, sample := range []bool{false, true} {
			runtime.GC()
			r, err := replayEngine(spec, inputs, frames, sample)
			if err != nil {
				return nil, nil, err
			}
			best := &bare
			if sample {
				best = &sampled
			}
			if *best == nil || r.all.dur < (*best).all.dur {
				*best = r
			}
		}
	}
	return bare, sampled, nil
}

// engineMetrics turns the two bare-engine replays into the engine and
// stats layer metrics. A close tick also routes a tick's rows, so the
// cost of closing is what the tick took beyond routing that many rows.
func engineMetrics(m map[string]float64, bare, sampled *engineReplay) {
	m["engine.tick.ns_per_row"] = float64(bare.all.dur) / float64(bare.all.rows)
	if bare.route.rows > 0 {
		m["engine.route_tick.ns_per_row"] = float64(bare.route.dur) / float64(bare.route.rows)
	}
	if c := bare.closing; c.n > 0 {
		routing := m["engine.route_tick.ns_per_row"] * float64(c.rows)
		m["engine.close.ms_per_window"] = (float64(c.dur) - routing) / 1e6 / float64(c.n)
		m["engine.results_per_window"] = float64(c.results) / float64(c.n)
	}
	m["stats.sample.ns_per_row"] = float64(sampled.all.dur)/float64(sampled.all.rows) - m["engine.tick.ns_per_row"]
}

// solverMetrics times the optimizer alone on the request the system
// would solve now: the cascade under opt, and the greedy tier forced.
func solverMetrics(m map[string]float64, sys *core.System, opt optimizer.Options) {
	req, _ := core.ExportRequest(sys)
	if req == nil {
		return
	}
	if r, err := optimizer.Optimize(req, opt); err == nil {
		m["optimizer.solve.ms"] = r.Elapsed.Seconds() * 1e3
		m["optimizer.solve.nodes"] = float64(r.Nodes)
	}
	opt.GreedyThreshold = 1 // every instance is at least this large: greedy tier alone
	if r, err := optimizer.Optimize(req, opt); err == nil {
		m["optimizer.greedy.ms"] = r.Elapsed.Seconds() * 1e3
	}
}

// inputKeys lists the distinct key specs queries partition stream s by.
func inputKeys(queries []engine.QuerySpec, s engine.StreamID) []engine.KeySpec {
	var keys []engine.KeySpec
	seen := map[string]bool{}
	for _, q := range queries {
		for _, in := range q.Inputs {
			if sig := fmt.Sprint(in.Key); in.Stream == s && !seen[sig] {
				seen[sig] = true
				keys = append(keys, in.Key)
			}
		}
	}
	return keys
}

// kernelMetrics times four calls on their own, on the workload's first
// stream: the key fold, the key→group map, the wire encoder, and — on
// every workload, as a fixed reference — the tpch lineitem generator.
func kernelMetrics(m map[string]float64, def engine.StreamDef, src engine.Source, rows int, keys []engine.KeySpec, space keyspace.Space) {
	var blk engine.TupleBlock
	blk.Resize(rows, def.NumCols)
	src.NextBlock(&blk, 0, rows)
	folded := make([]uint64, rows)
	groups := make([]int32, rows)
	m["engine.keyof_block.ns_per_row"] = perItem(rows*len(keys), func() {
		for _, k := range keys {
			k.KeyOfBlock(&blk, 0, rows, folded)
		}
	})
	m["keyspace.groups_of_keys.ns_per_key"] = perItem(rows, func() { space.GroupsOfKeys(folded, groups) })
	var buf bytes.Buffer
	var scratch []byte
	m["runtime.wire.encode.ns_per_row"] = perItem(rows, func() {
		buf.Reset()
		// Writes to a bytes.Buffer cannot fail.
		_ = srt.WriteFrame(&buf, &blk, def.NumCols, &scratch)
	})
	tw, err := tpch.New(tpch.DefaultConfig())
	if err != nil {
		return
	}
	li := tw.Streams[tpch.Lineitem]
	var lb engine.TupleBlock
	lb.Resize(rows, li.NumCols)
	lsrc := li.NewSource(0)
	m["tpch.gen.ns_per_row"] = perItem(rows, func() { lsrc.NextBlock(&lb, 0, rows) })
}

// perItem runs f for five rounds of at least 10 ms and returns the
// median round's nanoseconds per item; items is what one call handles.
func perItem(items int, f func()) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		calls := 0
		t := time.Now()
		for time.Since(t) < 10*time.Millisecond {
			f()
			calls++
		}
		rounds = append(rounds, float64(time.Since(t))/float64(calls*items))
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2]
}

// replayVirt is the traced run of the virtual-time workload: per-tick
// timing of System.Run(Tick) with the same classification (there are
// no window results in counting mode, so no tick is a close), the same
// ticks through a bare engine with and without the collector, the
// solver alone and the kernels.
func replayVirt(seed int64, size passSize, outDir string) (*repResult, error) {
	ticks := size.warmFrames + size.measFrames
	res := &repResult{Workload: wlVirtTpch, Attempted: ticks, Metrics: map[string]float64{}}
	sys, w, err := newVirtSystem(seed, obs.New())
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	tick := eng.Config().Tick
	tr := &tracer{epoch: time.Now()}
	root := tr.begin("replay", -1, 0)
	totals := tickTable{}
	for i := 1; i <= ticks; i++ {
		trig0, rows0 := sys.Snapshot().Triggers, eng.GeneratedTuples()
		s := tr.begin("core.tick", root, i)
		err := sys.Run(tick)
		d := tr.end(s)
		if err != nil {
			return nil, err
		}
		rows := eng.GeneratedTuples() - rows0
		class := classify(sys.Snapshot().Triggers-trig0, 0, rows)
		tr.spans[s].Class, tr.spans[s].Rows = class, int(rows)
		totals.add(class, d, rows, 0)
	}
	wall := tr.end(root)

	m := res.Metrics
	totals.report(m, wall, eng.GeneratedTuples())

	// Bare engine, rate-driven like the system above.
	var per [2]float64
	for i, sample := range []bool{false, true} {
		cfg := eng.Config()
		bare, err := engine.New(cfg, w.Streams, w.Queries)
		if err != nil {
			return nil, err
		}
		if sample {
			installCollector(bare)
		}
		w.ApplyRates(bare, 1)
		t := time.Now()
		if err := bare.Run(time.Duration(ticks) * tick); err != nil {
			return nil, err
		}
		per[i] = float64(time.Since(t)) / float64(bare.GeneratedTuples())
	}
	m["engine.tick.ns_per_row"] = per[0]
	m["engine.route_tick.ns_per_row"] = per[0]
	m["stats.sample.ns_per_row"] = per[1] - per[0]
	if v, ok := m["core.tick.ns_per_row"]; ok {
		m["core.overhead.ns_per_row"] = v - per[0]
	}
	solverMetrics(m, sys, virtSolverOptions())
	li := w.Streams[tpch.Lineitem]
	kernelMetrics(m, li, li.NewSource(0), serveBlockRows, inputKeys(w.Queries, tpch.Lineitem), eng.Space())

	return res, tr.write(outDir, wlVirtTpch, seed)
}
