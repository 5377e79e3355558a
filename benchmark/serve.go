package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"saspar/internal/engine"
	"saspar/internal/obs"
	srt "saspar/internal/runtime"
)

// repResult is what one repetition — one operating-system process —
// reports to the parent that aggregates them.
type repResult struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics holds the scalar end-to-end metrics and the per-layer
	// metrics that are read from outside during the end-to-end run.
	Metrics map[string]float64 `json:"metrics"`
	// ClaimMs and CloseMs are the per-frame latencies; the parent picks
	// the percentiles, because whether the sample supports a p99 is a
	// question about all repetitions together.
	ClaimMs []float64 `json:"claim_ms,omitempty"`
	CloseMs []float64 `json:"close_ms,omitempty"`
	// Fingerprint digests every count of a virtual-time run; the
	// repetitions of one run must agree on it.
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (r *repResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// passSize fixes the work of one repetition by count, not by duration:
// every repetition of a run does identical work, so its peak memory is
// a function of the code and not of the clock.
type passSize struct {
	warmFrames int // per stream, sent before the first measured row
	measFrames int // per stream, the measured pass
}

// sizeServe turns a measured-pass length into frame counts with the
// workload's nominal rate; the warm-up is a quarter of the measured
// pass. It fills the first windows and grows the heap and the rings.
func sizeServe(spec *serveSpec, passSeconds float64) passSize {
	perStream := spec.nominal * passSeconds / float64(len(spec.wl.Streams)) / float64(spec.frameRows)
	meas := int(perStream + 0.5)
	if meas < 4 {
		meas = 4
	}
	return passSize{warmFrames: (meas + 3) / 4, measFrames: meas}
}

// serveOpts are the hooks tests use; the command leaves them zero.
type serveOpts struct {
	// corruptFrame, when positive, adds one to one value of the probed
	// query's aggregated column in that frame of stream 0, which the
	// end-of-run check must catch.
	corruptFrame int
}

// generator is the load generator: one goroutine, one connection per
// stream, writing bytes that were encoded during set-up.
type generator struct {
	spec    *serveSpec
	inputs  []*input
	conns   []net.Conn
	clk     clock
	epoch   time.Time
	opts    serveOpts
	claimed *timeline // where the closed loop reads how far the engine has claimed

	sent     []int // frames sent per stream, all passes
	sentRows int64

	// Per pass, reset by beginPass: time blocked in Write or waiting for
	// the closed loop's window — waiting for the server either way — and for each
	// frame of stream 0 its due time, the rows sent once it was written
	// and (open loop) how late the generator reached it.
	blocked time.Duration
	due     []time.Duration
	cum     []int64
	late    []float64 // ms
}

func (g *generator) beginPass() {
	g.blocked = 0
	g.due, g.cum, g.late = nil, nil, nil
}

// closedWindow is the closed loop's concurrency: the frames per stream
// that may be written and not yet claimed — one ingest ring's worth.
// The generator sends the next frame only once the engine has claimed
// one from that far back, so the depth of the pipeline is fixed here
// and not by how far the kernel has autotuned the socket buffers today
// (which alone moved the claim latency between 400 and 800 ms).
const closedWindow = serveRingBlocks

// awaitWindow blocks until fewer than closedWindow frames per stream
// are outstanding, and returns the time spent waiting.
func (g *generator) awaitWindow() time.Duration {
	limit := int64(closedWindow * g.spec.frameRows * len(g.inputs))
	t := g.clk.Now()
	for {
		if s, ok := g.claimed.last(); ok && g.sentRows-s.rows < limit {
			return g.clk.Now().Sub(t)
		}
		g.clk.Sleep(100 * time.Microsecond)
	}
}

// pass writes frames frames on every stream, alternating between the
// streams. With a schedule it is the open loop: write n of the pass is
// due at slot first+n of the schedule. Without one it is the closed
// loop: a frame is due the moment the window admits it.
func (g *generator) pass(frames int, sch *schedule, first int) error {
	slot := first
	for k := 0; k < frames; k++ {
		for si, in := range g.inputs {
			i := g.sent[si]
			var due time.Time
			if sch != nil {
				late := sch.wait(g.clk, slot)
				due = sch.due(slot)
				slot++
				g.late = append(g.late, late.Seconds()*1e3)
			} else {
				g.blocked += g.awaitWindow()
				due = g.clk.Now()
			}
			buf := in.frame(i)
			if si == 0 && g.opts.corruptFrame > 0 && i == g.opts.corruptFrame {
				buf = corrupted(buf, frameOffset(in.rows, g.spec.wl.Queries[g.spec.probeQuery].AggCol, 1))
			}
			t := g.clk.Now()
			_, err := g.conns[si].Write(buf)
			g.blocked += g.clk.Now().Sub(t)
			if err != nil {
				return fmt.Errorf("stream %d frame %d: %w", si, i, err)
			}
			g.sent[si]++
			g.sentRows += int64(in.rows)
			if si == 0 {
				g.due = append(g.due, due.Sub(g.epoch))
				g.cum = append(g.cum, g.sentRows)
			}
		}
	}
	return nil
}

// corrupted returns a copy of an encoded frame with the value at off
// increased by one.
func corrupted(frame []byte, off int) []byte {
	c := append([]byte(nil), frame...)
	c[off]++
	return c
}

// startPhase is the virtual-clock phase every repetition starts its
// traffic at. The optimizer fires when the virtual clock passes a
// multiple of the trigger interval, and an idle serve loop races
// through ~90 virtual seconds per wall second, so without a lock a
// saturating pass — three virtual seconds of a trigger interval of
// eight — contains the one-second solve or not by chance: a swing of a
// quarter of the pass. Locked to just after a trigger, the warm-up and
// the measured pass of the closed-loop workloads fit before the next
// one and never contain a solve (the open loop is where the control
// plane is measured: there the virtual clock runs ~10x wall and every
// pass sees the same handful of solves). A pass of more than four to
// five seconds outgrows the interval and sees a solve again.
const (
	startPhase = 100 * time.Millisecond
	phaseSlack = 200 * time.Millisecond
)

// waitPhase blocks until the server's virtual clock, modulo the
// trigger interval, is in [from, from+phaseSlack). An idle loop spends
// about 4 ms of wall time in that window; the poll is forty times
// finer.
func waitPhase(srv *srt.Server, from time.Duration) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ph := readSample(srv, 0, time.Time{}).vt % triggerInterval
		if ph >= from && ph < from+phaseSlack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("virtual clock never reached phase %v of the trigger interval", from)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

const drainTimeout = 60 * time.Second

// serveRun is one repetition of a serving workload in flight.
type serveRun struct {
	spec *serveSpec
	size passSize
	srv  *srt.Server
	smp  *sampler
	gen  *generator
	res  *repResult
}

// runServe is one repetition of a serving workload: set up, warm up,
// run the measured pass, drain, stop and check. procStart is when the
// process started: set-up time counts from there.
func runServe(spec *serveSpec, seed int64, size passSize, opts serveOpts, procStart time.Time) (*repResult, error) {
	streams := spec.wl.Streams
	res := &repResult{
		Workload:  spec.name,
		Attempted: (size.warmFrames + size.measFrames) * len(streams),
		Metrics:   map[string]float64{},
	}
	inputs, err := encodeInputs(spec, seed)
	if err != nil {
		return nil, err
	}
	for _, q := range spec.wl.Queries {
		if q.Kind == engine.OpAggregate && q.Inputs[0].Stream == 0 && q.AggCol == spec.probeCol() {
			return nil, fmt.Errorf("%s: probe column %d is aggregated by %s", spec.name, spec.probeCol(), q.ID)
		}
	}
	inputs[0].probeOff = frameOffset(spec.frameRows, spec.probeCol(), 0)

	srv, err := srt.NewServer(serverConfig(spec, obs.New(), "127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Stop()

	gen := &generator{spec: spec, inputs: inputs, clk: wallClock{}, epoch: procStart, opts: opts, sent: make([]int, len(streams))}
	for si, def := range streams {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := srt.WriteHeader(c, srt.Header{Stream: engine.StreamID(si), Cols: def.NumCols}); err != nil {
			return nil, err
		}
		gen.conns = append(gen.conns, c)
	}
	smp := startSampler(srv, spec.probeQuery, procStart)
	defer smp.halt()
	gen.claimed = smp.tl

	// Warm-up, then the measured pass. The open loop runs both on one
	// schedule and measures from the due time of the first measured
	// frame; the closed loop lets the warm-up drain first, so the pass
	// starts on an empty pipeline.
	if err := waitPhase(srv, startPhase); err != nil {
		return nil, err
	}
	var sch *schedule
	if spec.open {
		sch = &schedule{start: time.Now(), rows: spec.frameRows, rate: spec.rate}
	}
	genErr := gen.pass(size.warmFrames, sch, 0)
	if genErr == nil && !spec.open {
		if _, ok := smp.tl.waitRows(gen.sentRows, drainTimeout); !ok {
			genErr = fmt.Errorf("warm-up rows unclaimed after %v", drainTimeout)
		}
	}
	t0 := time.Now()
	if spec.open {
		t0 = sch.due(size.warmFrames)
	}
	u0, r0 := readUsage(), srv.Report()
	gen.beginPass()
	if genErr == nil {
		genErr = gen.pass(size.measFrames, sch, size.warmFrames)
	}
	run := &serveRun{spec: spec, size: size, srv: srv, smp: smp, gen: gen, res: res}
	run.finish(t0, u0, r0, genErr)
	return res, nil
}

// drainMargin is the virtual time allowed, beyond the longest window
// and the watermark lag, for rows still queued in the modelled network
// when the last row was claimed.
const drainMargin = 300 * time.Millisecond

// drainSpan is how far the virtual clock must advance past the claim of
// the last row before every window holding a row has closed: the
// longest window, the watermark lag and the margin. (If it were too
// short the check that follows would find rows missing; a longer one
// only drags the next optimizer round into the drain.)
func drainSpan(spec *serveSpec, lag time.Duration) time.Duration {
	var longest time.Duration
	for _, q := range spec.wl.Queries {
		if q.Window.Range > longest {
			longest = q.Window.Range
		}
	}
	return longest + lag + drainMargin
}

// finish ends the measured pass, which began at t0 with the process
// usage u0 and the report r0: it waits for the last row to be claimed,
// drains, stops the server, checks the results and turns the sampled
// timeline into latencies.
func (r *serveRun) finish(t0 time.Time, u0 procUsage, r0 srt.Report, genErr error) {
	res, spec, gen, tl := r.res, r.spec, r.gen, r.smp.tl
	genEnd := time.Now()
	if genErr != nil {
		// Everything not yet written fails with the connection, and a
		// pass cut short has no throughput to report.
		unsent := res.Attempted
		for _, n := range gen.sent {
			unsent -= n
		}
		res.fail(unsent, "generator: %v", genErr)
		return
	}
	endAt, claimed := tl.waitRows(gen.sentRows, drainTimeout)
	u1, r1 := readUsage(), r.srv.Report()
	vt1, _ := time.ParseDuration(r1.VirtualTime)
	engCfg := r.srv.System().Engine().Config()
	// Wall time is no guide to the drain: an idle loop closes every open
	// window within milliseconds, and a solve that fires meanwhile
	// freezes the clock for its whole budget. Wait on the virtual clock.
	until := vt1 + drainSpan(spec, engCfg.WatermarkLag)
	drained := false
	if claimed {
		_, drained = tl.waitFor(func(s sample) bool { return s.vt >= until }, drainTimeout)
	}
	r.smp.halt()
	r.srv.Stop()

	measRows := float64(r.size.measFrames * spec.frameRows * len(gen.inputs))
	start := t0.Sub(gen.epoch)
	res.Metrics["setup_s"] = start.Seconds()
	res.Metrics["peak_rss_mb"] = readUsage().maxRSSMB
	if !claimed {
		last, _ := tl.last()
		missing := int((gen.sentRows - last.rows + int64(spec.frameRows) - 1) / int64(spec.frameRows))
		res.fail(missing, "%d rows unclaimed at the drain deadline", gen.sentRows-last.rows)
		return
	}
	wall := (endAt - start).Seconds()
	res.Metrics["rows_per_s"] = measRows / wall

	// Read from outside during the run: process, generator, rings, loop.
	vt0, _ := time.ParseDuration(r0.VirtualTime)
	res.Metrics["proc.cpu_ns_per_row"] = float64(u1.cpu-u0.cpu) / measRows
	res.Metrics["proc.gc_cycles"] = float64(u1.gcCycles - u0.gcCycles)
	res.Metrics["proc.page_faults"] = float64(u1.faults - u0.faults)
	res.Metrics["proc.heap_peak_mb"] = u1.heapMB
	res.Metrics["gen.write_blocked_share"] = gen.blocked.Seconds() / genEnd.Sub(t0).Seconds()
	sort.Float64s(gen.late)
	if v, err := percentile(gen.late, 99); err == nil {
		res.Metrics["gen.late_p99_ms"] = v
	}
	if last, ok := tl.at(genEnd.Sub(gen.epoch)); ok {
		res.Metrics["gen.backlog_rows"] = float64(gen.sentRows - last.rows)
	}
	res.Metrics["runtime.ring.full_total"] = r1.RingFull - r0.RingFull
	if blocks := r1.IngestBlocks - r0.IngestBlocks; blocks > 0 {
		res.Metrics["runtime.ring.recycled_share"] = (r1.Recycled - r0.Recycled) / blocks
	}
	if ticks := float64(vt1-vt0) / float64(engCfg.Tick); ticks > 0 {
		res.Metrics["runtime.serve.rows_per_tick"] = measRows / ticks
	}
	res.Metrics["runtime.serve.vt_per_wall"] = (vt1 - vt0).Seconds() / wall
	snap := r.srv.System().Snapshot()
	res.Metrics["core.triggers"] = float64(r1.Triggers - r0.Triggers)
	res.Metrics["core.plans_applied"] = float64(r1.Applied - r0.Applied)
	res.Metrics["core.plans_skipped"] = float64(snap.SkippedPlans)
	modelCounts(res.Metrics, snap)

	if !drained {
		res.fail(res.Attempted, "windows still open after %v", drainTimeout)
		return
	}
	eng := r.srv.System().Engine()
	checkResults(res, spec, eng, gen.inputs, gen.sent, gen.sentRows)
	r.latencies(eng.Results(spec.probeQuery))
}

// checkResults is the end-of-run correctness check. Every aggregation
// must account for every row sent on its stream: the weights of its
// results sum to the row count and their sums to the input's sum of
// the aggregated column. Joins emit no aggregation results, and the
// engine must have claimed exactly the rows sent. Any violation fails
// every frame: the run's numbers describe a system that lost data.
func checkResults(res *repResult, spec *serveSpec, eng *engine.Engine, inputs []*input, sent []int, sentRows int64) {
	if got := eng.GeneratedTuples(); got != sentRows {
		res.fail(res.Attempted, "engine claimed %d rows, %d were sent", got, sentRows)
	}
	for qi, q := range spec.wl.Queries {
		rs := eng.Results(qi)
		if q.Kind != engine.OpAggregate {
			if len(rs) != 0 {
				res.fail(res.Attempted, "join %s emitted %d aggregation results", q.ID, len(rs))
			}
			continue
		}
		si := int(q.Inputs[0].Stream)
		var weight, sum float64
		for i := range rs {
			weight += rs[i].Weight
			sum += rs[i].Sum
		}
		wantWeight := float64(sent[si] * inputs[si].rows)
		wantSum := inputs[si].sentSum(q.AggCol, sent[si])
		if weight != wantWeight || sum != wantSum {
			res.fail(res.Attempted, "%s: results hold %.0f rows summing to %.0f, input has %.0f rows summing to %.0f",
				q.ID, weight, sum, wantWeight, wantSum)
		}
	}
}

// latencies times every measured frame of stream 0 from its due
// time: to the first sample at which the ingested row count covers it
// (claim) and to the first sample at which the window result holding
// its probe row is visible (close). Results are append-only and in
// emission order, so a result's index is the count at which it became
// visible.
func (r *serveRun) latencies(rs []engine.AggResult) {
	res, gen, tl, size := r.res, r.gen, r.smp.tl, r.size
	index := make(map[uint64]int, size.measFrames)
	for i := range rs {
		if rs[i].Key >= probeBase {
			if _, dup := index[rs[i].Key]; !dup {
				index[rs[i].Key] = i
			}
		}
	}
	missing := 0
	for k := range gen.due {
		claimAt, ok1 := tl.firstRows(gen.cum[k])
		idx, ok2 := index[probeKey(size.warmFrames+k)]
		closeAt, ok3 := tl.firstResults(idx + 1)
		if !ok1 || !ok2 || !ok3 {
			missing++
			continue
		}
		res.ClaimMs = append(res.ClaimMs, (claimAt-gen.due[k]).Seconds()*1e3)
		res.CloseMs = append(res.CloseMs, (closeAt-gen.due[k]).Seconds()*1e3)
	}
	if missing > 0 {
		res.fail(missing, "%d measured frames have no claim or no window result in the timeline", missing)
	}
}
