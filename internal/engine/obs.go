package engine

import (
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// engObs holds the engine's telemetry handles, pre-resolved once at
// SetObs time so the tick loop never touches the registry map. The
// whole struct is reached through a single nil-guarded pointer: with
// obs disabled (the default) the hot path pays one predictable branch
// and allocates nothing — the PR-1 allocation benchmarks are the
// regression gate for that contract.
type engObs struct {
	reg *obs.Registry

	stallTicks  *obs.Counter
	reshuffled  *obs.Counter
	jitCompiles *obs.Counter

	inboxBytes   *obs.Gauge
	inboxMax     *obs.Gauge
	outstanding  *obs.Gauge
	nodeWorkMax  *obs.Gauge
	nodeWorkMean *obs.Gauge
	queueDepth   *obs.Histogram
}

// SetObs attaches a telemetry registry to the engine (nil detaches).
// Handles are resolved here, outside the tick loop; the network gets
// its own handles through the same call.
func (e *Engine) SetObs(r *obs.Registry) {
	e.net.SetObs(r)
	if r == nil {
		e.obs = nil
		e.nodeWork = nil
		return
	}
	e.nodeWork = make([]int, e.cfg.Nodes)
	e.obs = &engObs{
		reg: r,
		stallTicks: r.Counter("saspar_engine_backpressure_stall_ticks_total",
			"Router-task ticks whose prior-tick sends were partially refused (acceptance ratio < 1)."),
		reshuffled: r.Counter("saspar_engine_reshuffled_tuples_total",
			"Weighted tuples sent back to sources by iterator guards during reconfiguration."),
		jitCompiles: r.Counter("saspar_engine_jit_compiles_total",
			"Operator chains recompiled after plan changes."),
		inboxBytes: r.Gauge("saspar_engine_inbox_bytes",
			"Delivered-but-unprocessed ingress buffer bytes, summed over nodes."),
		inboxMax: r.Gauge("saspar_engine_inbox_max_bytes",
			"Largest single-node ingress buffer occupancy."),
		outstanding: r.Gauge("saspar_engine_outstanding_state_moves",
			"Window-state fragments moved but not yet merged at their new owner."),
		nodeWorkMax: r.Gauge("saspar_engine_node_work_max",
			"Largest per-node slot-entry consumption last tick (node-derived, so identical at any tick-worker count)."),
		nodeWorkMean: r.Gauge("saspar_engine_node_work_mean",
			"Mean per-node slot-entry consumption last tick (node-derived, so identical at any tick-worker count)."),
		queueDepth: r.Histogram("saspar_engine_inbox_depth_bytes",
			"Per-tick distribution of total ingress buffer occupancy.",
			[]float64{1 << 16, 1 << 20, 16 << 20, 64 << 20, 256 << 20}),
	}
}

// observeTick publishes the per-tick queue-depth gauges. Called from
// step() only when obs is attached.
func (e *Engine) observeTick() {
	var tot, max float64
	for _, b := range e.inboxBytes {
		tot += b
		if b > max {
			max = b
		}
	}
	e.obs.inboxBytes.Set(tot)
	e.obs.inboxMax.Set(max)
	e.obs.outstanding.Set(float64(e.outstandingState))
	e.obs.queueDepth.Observe(tot)
	var wMax, wSum int
	for i, w := range e.nodeWork {
		wSum += w
		if w > wMax {
			wMax = w
		}
		e.nodeWork[i] = 0
	}
	e.obs.nodeWorkMax.Set(float64(wMax))
	if len(e.nodeWork) > 0 {
		e.obs.nodeWorkMean.Set(float64(wSum) / float64(len(e.nodeWork)))
	}
}

// emitJIT records a slot's post-alignment compilation burst.
func (o *engObs) emitJIT(t vtime.Time, compiles int, d vtime.Duration) {
	o.jitCompiles.Add(float64(compiles))
	o.reg.Emit(t, obs.EvJITCompile,
		obs.I("compiles", int64(compiles)),
		obs.F("elapsed_ms", float64(d)/float64(vtime.Millisecond)))
}
