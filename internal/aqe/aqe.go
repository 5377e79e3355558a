// Package aqe drives the adaptive-query-execution protocol of Section
// III over a running engine. The engine implements the mechanisms —
// in-band notification markers, sync-point alignment, operator
// re-generation ("JIT"), iterator-guarded state movement — and this
// controller sequences them: start a reconfiguration, watch it
// complete asynchronously while data keeps flowing, then broadcast the
// finalize round that reverts iterators to pass-through.
package aqe

import (
	"fmt"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// Phase is the controller state.
type Phase int

const (
	// Idle: no reconfiguration in flight.
	Idle Phase = iota
	// Staging: the markers are held until Begin's readyAt, while
	// checkpoint state pre-ships to the migration destinations. No marker
	// is in flight yet, so nothing aligns or pauses.
	Staging
	// Reconfiguring: markers and moved state are in flight (steps 1-4).
	Reconfiguring
	// Finalizing: the second marker round is draining (step 5).
	Finalizing
)

func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Staging:
		return "staging"
	case Reconfiguring:
		return "reconfiguring"
	case Finalizing:
		return "finalizing"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Event is what one Poll did: the caller is told, and has nothing to
// infer from Phase and Applied.
type Event int

const (
	None     Event = iota // nothing changed this tick
	Injected              // the held markers went out (Staging → Reconfiguring)
	Aligned               // steps 1-4 completed; the finalize round was broadcast
	Done                  // the finalize round drained; the reconfiguration is applied
	Dropped               // the held plan went stale and was not injected: idle again, nothing moved
)

// Controller sequences reconfigurations on one engine. Poll it from the
// simulation loop; it never blocks and never stops the query plan.
type Controller struct {
	eng   *engine.Engine
	phase Phase

	epochBefore   int64 // engine epoch when the markers were injected
	reconfigEpoch int64 // epoch of the in-flight reconfiguration
	finalizeEpoch int64

	applied int // completed reconfigurations

	// The assignment set whose markers are held (Staging), and the
	// virtual instant they go out.
	held    map[int]*keyspace.Assignment
	readyAt vtime.Time

	// beganAt timestamps protocol start (Begin), injectedAt the marker
	// injection (== beganAt unless the markers were held), alignedAt the
	// alignment completion; lastAlign is the most recently completed
	// reconfiguration's injection→alignment span — the processing pause
	// the migration figure measures. All maintained unconditionally so
	// the control layer can read them without telemetry attached.
	beganAt    vtime.Time
	injectedAt vtime.Time
	alignedAt  vtime.Time
	lastAlign  vtime.Duration

	// obs receives one event per protocol phase transition; nil (the
	// default) disables telemetry.
	obs       *obs.Registry
	reconfigs *obs.Counter
}

// New builds a controller for the engine.
func New(eng *engine.Engine) *Controller {
	return &Controller{eng: eng}
}

// SetObs attaches a telemetry registry (nil detaches): the controller
// emits one control-plane event per protocol phase transition.
func (c *Controller) SetObs(r *obs.Registry) {
	c.obs = r
	c.reconfigs = r.Counter("saspar_aqe_reconfigurations_total",
		"Reconfigurations completed end-to-end (finalize round drained).")
}

// Phase reports the controller state.
func (c *Controller) Phase() Phase { return c.phase }

// Busy reports whether a reconfiguration is in flight.
func (c *Controller) Busy() bool { return c.phase != Idle }

// Applied reports how many reconfigurations completed end-to-end.
func (c *Controller) Applied() int { return c.applied }

// Begin starts the protocol for a new assignment set. Assignments equal
// to the current ones are dropped; if nothing changes the controller
// stays idle and returns false. The markers go out at readyAt: not
// after the clock, that is within this call (pause-and-transfer — a
// stage with nothing on the wire); later, they are held in Staging while
// the caller's pre-shipped snapshot state lands, so that alignment meets
// a warm destination and ships only the residual.
func (c *Controller) Begin(newAssign map[int]*keyspace.Assignment, readyAt vtime.Time) (bool, error) {
	if c.phase != Idle {
		return false, fmt.Errorf("aqe: controller busy (%v)", c.phase)
	}
	changed := map[int]*keyspace.Assignment{}
	movedGroups := 0
	for qi, a := range newAssign {
		if d := c.eng.Assignment(qi).Diff(a); len(d) > 0 {
			changed[qi] = a
			movedGroups += len(d)
		}
	}
	if len(changed) == 0 {
		return false, nil
	}
	now := c.eng.Clock()
	if readyAt > now {
		c.held, c.readyAt = changed, readyAt
		c.phase = Staging
	} else if err := c.inject(changed, obs.I("moved_groups", int64(movedGroups))); err != nil {
		return false, err
	}
	c.beganAt = now
	return true, nil
}

// inject sends the markers for changed and enters Reconfiguring; detail
// is the align_start event's second attribute. A failed injection
// leaves the controller exactly as it found it: a stale epochBefore
// would corrupt the lazy epoch resolution of the next reconfiguration.
func (c *Controller) inject(changed map[int]*keyspace.Assignment, detail obs.KV) error {
	epochBefore := c.eng.Epoch()
	if err := c.eng.InjectReconfig(changed); err != nil {
		return err
	}
	c.epochBefore = epochBefore
	c.phase = Reconfiguring
	c.reconfigEpoch = 0 // resolved on the next Poll (micro-batch defers the epoch bump)
	c.injectedAt = c.eng.Clock()
	if c.obs != nil {
		c.obs.Emit(c.injectedAt, obs.EvAlignStart, obs.I("queries", int64(len(changed))), detail)
	}
	return nil
}

// AbortStage cancels a reconfiguration whose markers are still held (a
// crash mid-stage voids the stage; the caller re-plans) and reports
// whether there was one. A no-op in any other phase: once markers are in
// flight the protocol must run to completion.
func (c *Controller) AbortStage() bool {
	if c.phase != Staging {
		return false
	}
	c.held = nil
	c.phase = Idle
	return true
}

// LastAlignDuration reports the injection→alignment span of the most
// recently completed reconfiguration — the processing pause the
// staged-migration figure compares across transfer modes.
func (c *Controller) LastAlignDuration() vtime.Duration { return c.lastAlign }

// Poll advances the controller and reports what that did; call it once
// per simulation tick.
func (c *Controller) Poll() Event {
	switch c.phase {
	case Staging:
		now := c.eng.Clock()
		if now < c.readyAt {
			return None // staged transfers still on the wire
		}
		changed := c.held
		c.held = nil
		if err := c.inject(changed, obs.F("stage_ms", msSince(c.beganAt, now))); err != nil {
			// The plan went stale while its markers were held (e.g. a
			// partition count change).
			c.phase = Idle
			return Dropped
		}
		return Injected
	case Reconfiguring:
		if c.reconfigEpoch == 0 {
			if e := c.eng.Epoch(); e > c.epochBefore {
				c.reconfigEpoch = e
			} else {
				return None // micro-batch: waiting for the boundary
			}
		}
		if !c.eng.ReconfigComplete(c.reconfigEpoch) {
			return None
		}
		// Steps 1-4 done: broadcast the finalize round.
		c.eng.InjectFinalize()
		c.finalizeEpoch = c.eng.Epoch()
		c.phase = Finalizing
		c.alignedAt = c.eng.Clock()
		if c.obs != nil {
			c.obs.Emit(c.alignedAt, obs.EvAlignComplete,
				obs.F("align_ms", msSince(c.beganAt, c.alignedAt)))
		}
		return Aligned
	case Finalizing:
		if !c.eng.ReconfigComplete(c.finalizeEpoch) {
			return None
		}
		c.phase = Idle
		c.applied++
		c.lastAlign = c.alignedAt.Sub(c.injectedAt)
		if c.obs != nil {
			now := c.eng.Clock()
			c.reconfigs.Inc()
			c.obs.Emit(now, obs.EvReconfigDone,
				obs.F("total_ms", msSince(c.beganAt, now)))
		}
		return Done
	}
	return None
}

// msSince reports the virtual-time span from..to in milliseconds.
func msSince(from, to vtime.Time) float64 {
	return float64(to.Sub(from)) / float64(vtime.Millisecond)
}
