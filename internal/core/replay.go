package core

import (
	"sort"

	"saspar/internal/cluster"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

// replay applies a Config.Script to the engine as the clock advances:
// the one path by which a virtual run receives its schedule. An event
// strikes at the first tick boundary at or after its time — the start
// of a run is a boundary, so events at 0 shape the first tick. Faults
// apply and (for transient kinds) revert at those boundaries and are
// traced; rate events only set the stream's offered rate, which the
// engine reads inside its next tick, so they leave no trace and do not
// count as faults.
type replay struct {
	eng     *engine.Engine
	reg     *obs.Registry   // nil = no trace
	events  scenario.Script // sorted
	next    int
	reverts []revert // sorted by at
	struck  int      // fault events applied so far
}

// revert is a pending restoration of a transient fault.
type revert struct {
	at   vtime.Time
	kind scenario.Kind
	node cluster.NodeID
}

// newReplay validates the script against the engine's cluster and
// streams and prepares the replay. The registry is optional.
func newReplay(eng *engine.Engine, s scenario.Script, reg *obs.Registry) (*replay, error) {
	if err := s.Validate(eng.Config().Nodes, eng.NumStreams()); err != nil {
		return nil, err
	}
	return &replay{eng: eng, reg: reg, events: s.Sorted()}, nil
}

// advance applies every event due at or before now and reverts every
// transient fault that expired. Idempotent between clock advances; a
// nil replay (no script) does nothing.
func (r *replay) advance(now vtime.Time) {
	if r == nil {
		return
	}
	// Interleave strikes and reverts in timestamp order so a brownout
	// ending at t and another starting at t resolve identically on
	// every run (reverts first: both queues are sorted, and a revert
	// scheduled at t was struck strictly before t).
	for {
		haveRevert := len(r.reverts) > 0 && r.reverts[0].at <= now
		haveEvent := r.next < len(r.events) && r.events[r.next].At <= now
		if haveRevert && (!haveEvent || r.reverts[0].at <= r.events[r.next].At) {
			rv := r.reverts[0]
			r.reverts = r.reverts[1:]
			r.restore(rv)
			continue
		}
		if !haveEvent {
			return
		}
		ev := r.events[r.next]
		r.next++
		r.apply(ev)
	}
}

func (r *replay) apply(ev scenario.Event) {
	switch ev.Kind {
	case scenario.KindRate:
		r.eng.SetStreamRate(engine.StreamID(ev.Stream), ev.Rate)
		return
	case scenario.KindCrash:
		r.eng.SetNodeDown(ev.Node, true)
	case scenario.KindBrownout:
		r.eng.SetNodeNICFactor(ev.Node, ev.Factor)
		r.scheduleRevert(ev)
	case scenario.KindStraggler:
		r.eng.SetNodeCPUFactor(ev.Node, ev.Factor)
		r.scheduleRevert(ev)
	}
	r.struck++
	r.trace(ev.Kind, ev.Node, "begin", ev.Factor)
}

func (r *replay) scheduleRevert(ev scenario.Event) {
	rv := revert{at: ev.At.Add(ev.Duration), kind: ev.Kind, node: ev.Node}
	i := sort.Search(len(r.reverts), func(i int) bool { return r.reverts[i].at > rv.at })
	r.reverts = append(r.reverts, revert{})
	copy(r.reverts[i+1:], r.reverts[i:])
	r.reverts[i] = rv
}

func (r *replay) restore(rv revert) {
	switch rv.kind {
	case scenario.KindBrownout:
		r.eng.SetNodeNICFactor(rv.node, 1)
	case scenario.KindStraggler:
		r.eng.SetNodeCPUFactor(rv.node, 1)
	}
	r.trace(rv.kind, rv.node, "end", 1)
}

func (r *replay) trace(kind scenario.Kind, node cluster.NodeID, phase string, factor float64) {
	if r.reg != nil {
		r.reg.Emit(r.eng.Clock(), obs.EvFaultInjected,
			obs.S("kind", kind.String()),
			obs.I("node", int64(node)),
			obs.S("phase", phase),
			obs.F("factor", factor),
		)
	}
}
