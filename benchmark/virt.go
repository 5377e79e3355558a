package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"saspar/internal/core"
	"saspar/internal/obs"
)

// sizeVirt turns a measured-pass length into a fixed tick count with
// the nominal simulation speed; the warm-up is a quarter of it.
func sizeVirt(passSeconds float64, tick time.Duration) passSize {
	meas := int(virtNominal*passSeconds*float64(time.Second)/float64(tick) + 0.5)
	if meas < 8 {
		meas = 8
	}
	return passSize{warmFrames: (meas + 3) / 4, measFrames: meas}
}

// virtRun is one virtual-time pass with what it observed from outside.
type virtRun struct {
	tick     time.Duration
	lag      time.Duration   // the engine's watermark lag
	began    time.Time       // when the measured pass began
	u0, u1   procUsage       // process usage around the measured pass
	starts   []time.Duration // wall time each measured tick began, since the pass began
	ends     []time.Duration
	rows     int64 // concrete tuples generated in the measured pass
	snap     core.Report
	snapshot string // every count of the run, for comparing two runs
}

// runVirtPass builds the virtual-time system, runs the warm-up and the
// measured pass one tick at a time and reads the counts. The two clock
// readings per ~3 ms tick are the only cost of timing it.
func runVirtPass(seed int64, size passSize) (*virtRun, error) {
	sys, _, err := newVirtSystem(seed, obs.New())
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	v := &virtRun{tick: eng.Config().Tick, lag: eng.Config().WatermarkLag}
	if err := sys.Run(time.Duration(size.warmFrames) * v.tick); err != nil {
		return nil, err
	}
	eng.Metrics().StartMeasurement(eng.Clock())
	rows0 := eng.GeneratedTuples()
	v.starts = make([]time.Duration, size.measFrames)
	v.ends = make([]time.Duration, size.measFrames)
	v.u0 = readUsage()
	v.began = time.Now()
	for i := range v.starts {
		v.starts[i] = time.Since(v.began)
		if err := sys.Run(v.tick); err != nil {
			return nil, err
		}
		v.ends[i] = time.Since(v.began)
	}
	v.u1 = readUsage()
	eng.Metrics().StopMeasurement(eng.Clock())
	v.rows = eng.GeneratedTuples() - rows0
	v.snap = sys.Snapshot()
	v.snapshot = fmt.Sprintf("%+v rows=%d", v.snap, eng.GeneratedTuples())
	return v, nil
}

// runVirt is one repetition of the virtual-time workload. Operations
// are ticks. The parent compares the fingerprints of the repetitions:
// with work-based solver budgets every count of the run must repeat
// exactly, in this process and in the next.
func runVirt(seed int64, size passSize, procStart time.Time) (*repResult, error) {
	res := &repResult{
		Workload:  wlVirtTpch,
		Attempted: size.warmFrames + size.measFrames,
		Metrics:   map[string]float64{},
	}
	v, err := runVirtPass(seed, size)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = v.began.Sub(procStart).Seconds()
	res.Metrics["rows_per_s"] = float64(v.rows) / v.ends[len(v.ends)-1].Seconds()
	res.Metrics["peak_rss_mb"] = v.u1.maxRSSMB
	res.Metrics["proc.cpu_ns_per_row"] = float64(v.u1.cpu-v.u0.cpu) / float64(v.rows)
	res.Metrics["proc.gc_cycles"] = float64(v.u1.gcCycles - v.u0.gcCycles)
	res.Metrics["proc.page_faults"] = float64(v.u1.faults - v.u0.faults)
	res.Metrics["proc.heap_peak_mb"] = v.u1.heapMB
	res.Metrics["core.triggers"] = float64(v.snap.Triggers)
	res.Metrics["core.plans_applied"] = float64(v.snap.Applied)
	res.Metrics["core.plans_skipped"] = float64(v.snap.SkippedPlans)
	modelCounts(res.Metrics, v.snap)
	res.Fingerprint = fmt.Sprintf("%x", sha256.Sum256([]byte(v.snapshot)))
	res.ClaimMs, res.CloseMs = virtLatencies(v)
	return res, nil
}

// modelCounts are the counts the model produces in virtual units. On
// the virtual-time path they repeat bit for bit, so a later claim may
// rest on them as counts.
func modelCounts(m map[string]float64, s core.Report) {
	m["aqe.applied"] = float64(s.Applied)
	m["aqe.pause_vs"] = s.MigrationPauseSec
	m["engine.alignment_bytes"] = s.AlignmentBytes
	m["engine.staged_bytes"] = s.StagedBytes
	m["checkpoint.completed"] = float64(s.Checkpoints)
	m["checkpoint.bytes"] = s.CheckpointBytes
	m["netsim.bytes_net"] = s.Net.BytesNet
	m["netsim.utilization"] = s.Net.Utilization
	m["virt.model_tuples_per_vs"] = s.Throughput
	m["virt.avg_latency_vms"] = s.AvgLatency.Seconds() * 1e3
}

// The spans of virtual time the two latencies of the virtual-time path
// cover, in ticks. Both are even: ticks alternate between a light one
// (~0.7 ms) and a heavy one (~4 ms), so an even span always holds as
// many of the one as of the other, while the median of single ticks sits
// on the edge between the two kinds and jumps from one to the other with
// the seed and the minute. Both are short: the box's speed drifts by a
// sixth over minutes, every span moves with that, and the p99 of a long
// span (a virtual second, a tpch window) adds to it whatever hiccup hit
// the slowest stretch of the pass.
//
// virtClaimTicks is the tick that generates and routes the rows and the
// one after it, the shortest even span.
const virtClaimTicks = 2

// closeTicks adds the watermark lag (two ticks): a window is closed by
// the first tick whose watermark has passed its end, so this is the
// shortest path of a row into a window result.
func (v *virtRun) closeTicks() int { return virtClaimTicks + int(v.lag/v.tick) }

// virtLatencies gives the virtual-time path two latencies in wall-clock
// terms, so that every workload reports every end-to-end metric. There
// is no ingest here and no window result to watch; what a user of this
// path waits for is virtual time itself. Both are timed from the start
// of every tick, to the end of the span that starts with it.
//
// One tick in 80 runs the optimizer (~55 ms), so 2.5 % of the two-tick
// spans and 5 % of the four-tick spans hold a solve: the p99 of either
// is a span with a solve, well inside that group, and its p50 one
// without. (The p99 of single ticks is the cheapest solve or the dearest
// ordinary tick, by chance.)
func virtLatencies(v *virtRun) (claim, closing []float64) {
	span := func(i, ticks int) float64 { return (v.ends[i+ticks-1] - v.starts[i]).Seconds() * 1e3 }
	for i := 0; i+virtClaimTicks <= len(v.ends); i++ {
		claim = append(claim, span(i, virtClaimTicks))
	}
	for i := 0; i+v.closeTicks() <= len(v.ends); i++ {
		closing = append(closing, span(i, v.closeTicks()))
	}
	return claim, closing
}
