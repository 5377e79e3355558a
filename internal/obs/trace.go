package obs

import (
	"fmt"
	"strconv"

	"saspar/internal/vtime"
)

// EventKind names a control-plane event class. Kinds are stable
// identifiers — the event-trace schema documented in EXPERIMENTS.md —
// not free-form strings.
type EventKind string

const (
	// EvOptimizerTrigger: the control loop invoked the optimizer.
	// Attrs: reason (periodic|drift|manual), samples, cur_obj.
	EvOptimizerTrigger EventKind = "optimizer_trigger"
	// EvPlanAccepted: a new plan beat the hysteresis gate and was
	// handed to AQE. Attrs: cur_obj, new_obj, moved_groups, solves,
	// nodes, bound_gap, via (the cascade step credited with the plan, or
	// incumbent when none was). A round that ran no cascade (an anchored
	// round of more than eight query classes) reads solves=0 nodes=0
	// bound_gap=0 via=incumbent.
	EvPlanAccepted EventKind = "plan_accepted"
	// EvPlanSkipped: the solved plan was rejected. Attrs: reason
	// (gain|movement), cur_obj, new_obj, gross_obj, solves, nodes; or
	// reason=stale (it arrived after the plan it was solved for was
	// gone) with new_obj, solve_ms, solves, nodes.
	EvPlanSkipped EventKind = "plan_skipped"
	// EvDriftDetected: the largest per-stream L1 distance between a
	// class's key-group distribution and its previous epoch's exceeded
	// DriftTrigger before the periodic interval elapsed. Attrs: drift,
	// threshold.
	EvDriftDetected EventKind = "drift_detected"
	// EvAlignStart: AQE began marker alignment for a new plan.
	// Attrs: queries, moved_groups.
	EvAlignStart EventKind = "aqe_align_start"
	// EvAlignComplete: all markers aligned; state movement done;
	// finalize marker injected. Attrs: align_ms (virtual milliseconds
	// since alignment started).
	EvAlignComplete EventKind = "aqe_align_complete"
	// EvReconfigDone: the finalize marker drained; the plan is fully
	// live. Attrs: total_ms (virtual milliseconds for the whole
	// reconfiguration).
	EvReconfigDone EventKind = "aqe_reconfig_done"
	// EvJITCompile: slots compiled fused operator chains after an
	// alignment. Attrs: compiles, elapsed_ms.
	EvJITCompile EventKind = "jit_compile"
	// EvFaultInjected: the fault scheduler applied a scripted fault (or
	// reverted a transient one). Attrs: kind (crash|brownout|straggler),
	// node, phase (begin|end), factor.
	EvFaultInjected EventKind = "fault_injected"
	// EvFaultDetected: the control loop observed the cluster health
	// fingerprint change and entered degraded mode. Attrs: unhealthy,
	// fingerprint.
	EvFaultDetected EventKind = "fault_detected"
	// EvFaultRecovered: evacuation finished — no key group remains on an
	// unhealthy partition and AQE is idle. Attrs: recovery_ms, attempts,
	// lost_bytes.
	EvFaultRecovered EventKind = "fault_recovered"
	// EvCheckpointBegin: the checkpoint coordinator injected an aligned
	// checkpoint barrier. Attrs: checkpoint (id).
	EvCheckpointBegin EventKind = "checkpoint_begin"
	// EvCheckpointComplete: every live slot aligned on the barrier and
	// the snapshot was written to the store. Attrs: checkpoint, groups,
	// bytes, duration_ms (virtual milliseconds barrier→completion),
	// full (1 for a full snapshot, 0 for an incremental delta).
	EvCheckpointComplete EventKind = "checkpoint_complete"
	// EvCheckpointRestore: recovery re-installed evacuated key groups
	// from the newest pre-fault checkpoint. Attrs: checkpoint, groups,
	// restored_bytes, restore_ms (virtual milliseconds to re-ship the
	// state from the store courier).
	EvCheckpointRestore EventKind = "checkpoint_restore"
	// EvElasticDecision: the autoscaler's policy emitted a non-hold
	// verdict. Attrs: action (join|drain), live_nodes, target,
	// queue_depth, stall_ticks, nic_util.
	EvElasticDecision EventKind = "elastic_decision"
	// EvElasticJoin: a node was admitted into the cluster and its
	// partition slots entered the routing domain. Attrs: node, slots,
	// live_nodes.
	EvElasticJoin EventKind = "elastic_join"
	// EvElasticDrainStart: the control loop began evacuating a node's
	// key groups ahead of a drain. Attrs: node, groups.
	EvElasticDrainStart EventKind = "elastic_drain_start"
	// EvElasticDrainDone: the node retired — evacuation finished and the
	// node left the live set with zero counted-tuple loss. Attrs: node,
	// drain_ms (virtual milliseconds from drain start), live_nodes.
	EvElasticDrainDone EventKind = "elastic_drain_done"
	// EvMigrationStage: an accepted plan's moving cells were pre-staged
	// from a checkpoint chain; markers wait for the staged transfers.
	// Attrs: checkpoint, cells, staged_bytes, ready_ms (virtual
	// milliseconds until the slowest transfer lands).
	EvMigrationStage EventKind = "migration_stage"
	// EvMigrationFallback: a reconfiguration ran (or re-ran) as plain
	// pause-and-transfer because no usable checkpoint chain covered the
	// moving cells, the store node was down, or a fault voided an
	// in-flight stage. Attrs: reason (no_chain|store_down|fault|stale).
	EvMigrationFallback EventKind = "migration_fallback"
)

// KV is one ordered event attribute. Values are stringified at emit
// time: control-plane event rates are a handful per trigger interval,
// so the formatting cost is irrelevant, and a flat []KV keeps events
// directly printable and comparable.
type KV struct {
	K, V string
}

// S builds a string attribute.
func S(k, v string) KV { return KV{k, v} }

// I builds an integer attribute.
func I(k string, v int64) KV { return KV{k, strconv.FormatInt(v, 10)} }

// F builds a float attribute (shortest round-trip formatting).
func F(k string, v float64) KV { return KV{k, strconv.FormatFloat(v, 'g', 6, 64)} }

// Event is one structured control-plane event. Time is virtual time —
// the simulation clock at emission — so traces are deterministic and
// comparable across runs.
type Event struct {
	Seq   int64
	Time  vtime.Time
	Kind  EventKind
	Attrs []KV
}

// String renders the event as one human-readable line.
func (e Event) String() string {
	s := fmt.Sprintf("[%8.3fs] #%d %s", float64(e.Time)/float64(vtime.Second), e.Seq, e.Kind)
	for _, kv := range e.Attrs {
		s += " " + kv.K + "=" + kv.V
	}
	return s
}

// trace is a fixed-capacity event ring. Writes overwrite the oldest
// event once full; Events() returns the survivors oldest-first.
type trace struct {
	buf  []Event // grows to cap, then used as a ring
	cap  int
	next int   // ring write cursor, valid once len(buf) == cap
	seq  int64 // total events ever emitted
}

func (t *trace) emit(e Event) {
	e.Seq = t.seq
	t.seq++
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % t.cap
}

func (t *trace) events() []Event {
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < t.cap {
		return append(out, t.buf...)
	}
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Emit appends a control-plane event to the trace ring. Attrs are
// retained as passed; callers must not mutate the slice afterwards.
func (r *Registry) Emit(t vtime.Time, kind EventKind, attrs ...KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace.emit(Event{Time: t, Kind: kind, Attrs: attrs})
	r.mu.Unlock()
}

// Events returns the retained trace oldest-first. The slice is a copy.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.events()
}

// EventCount returns the total number of events ever emitted,
// including any that have been overwritten in the ring.
func (r *Registry) EventCount() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.seq
}
