package core

import (
	"time"

	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
)

// An optimization round is three steps — snapshot, solve, install — and
// only the middle one is long. The snapshot copies everything the
// solver reads out of the running system; the solve is a pure function
// of the snapshot, so it runs on a goroutine of its own; the install
// runs back on the goroutine that owns the engine. Whether that
// goroutine waits for the solver is decided by what drives the engine:
//
//   - no source task has a feed: the virtual clock runs free, a tick
//     costs nobody anything, and trigger joins the solver before it
//     returns. Every virtual-time run is exactly what it would be with
//     the solve inline.
//   - some source task has a feed: rows arrive on the wall clock and
//     queue while the loop is away, so the loop keeps ticking and picks
//     the result up at the first tick that finds it (pollSolve).
//
// A result that arrives later is checked against the system as it is
// then, not tracked through what happened meanwhile: if the plan it was
// solved for is no longer the plan that runs, it is dropped (current).

// planSnapshot is one round's input, detached from the live system.
type planSnapshot struct {
	req     *optimizer.Request
	classes []canonicalClass
	// anchors are the engine's own assignment objects, one per class.
	// The solver reads clones (opt.Anchor); these stay behind for their
	// identity: a reconfiguration replaces the objects, so a plan solved
	// against them is stale once they are gone.
	anchors []*keyspace.Assignment
	opt     optimizer.Options

	// Set by trigger; relocate's plans skip the hysteresis gate.
	curObj float64
}

// snapshotPlan copies the optimizer's input out of the running system:
// the request built from current statistics, the running plan as
// anchors, and the placement mask (nil = unrestricted). Nil when there
// is nothing to optimize.
func (s *System) snapshotPlan(allowed []bool) *planSnapshot {
	req, classes := s.buildRequest()
	if req == nil || len(req.Queries) == 0 {
		return nil
	}
	snap := &planSnapshot{
		req:     req,
		classes: classes,
		anchors: make([]*keyspace.Assignment, len(classes)),
		opt:     s.cfg.Opt,
	}
	snap.opt.Anchor = make([]*keyspace.Assignment, len(classes))
	for i, cc := range classes {
		snap.anchors[i] = s.eng.Assignment(cc.members[0])
		snap.opt.Anchor[i] = snap.anchors[i].Clone()
	}
	snap.opt.AllowedPartitions = allowed
	return snap
}

// current reports whether a plan solved for snap can still be
// installed: the same queries in the same classes, every anchor still
// the running assignment, the same placement domain, and nothing else —
// a reconfiguration, a recovery — holding the floor.
func (s *System) current(snap *planSnapshot) bool {
	if s.ctl.Busy() || s.recoveryPending {
		return false
	}
	classes := s.canonicalClasses()
	if len(classes) != len(snap.classes) {
		return false
	}
	for i, cc := range classes {
		was := snap.classes[i].members
		if len(cc.members) != len(was) {
			return false
		}
		for j, qi := range cc.members {
			if qi != was[j] {
				return false
			}
		}
		if s.eng.Assignment(cc.members[0]) != snap.anchors[i] {
			return false
		}
	}
	if s.eng.Config().NumPartitions != snap.req.NumPartitions {
		return false
	}
	allowed, _ := s.allowedPartitions()
	was := snap.opt.AllowedPartitions
	if len(allowed) != len(was) {
		return false
	}
	for p := range allowed {
		if allowed[p] != was[p] {
			return false
		}
	}
	return true
}

// solveJob is a solve in flight. done is buffered so that a solver
// nobody waits for any more — the system was stopped and dropped — can
// deliver, exit and be collected.
type solveJob struct {
	snap *planSnapshot
	done chan solveOutcome
}

type solveOutcome struct {
	res  *optimizer.Result
	err  error
	took time.Duration
}

// launch runs the solver on snap on its own goroutine — the one place
// the solver is called from. trigger parks the job in inFlight (at most
// one; it has checked); relocate receives from it at once.
func (s *System) launch(snap *planSnapshot) *solveJob {
	job := &solveJob{snap: snap, done: make(chan solveOutcome, 1)}
	solve := s.solve
	go func() {
		t := time.Now()
		res, err := solve(snap.req, snap.opt)
		job.done <- solveOutcome{res, err, time.Since(t)}
	}()
	return job
}

// pollSolve finishes the solve in flight if its result has arrived and
// returns at once otherwise.
func (s *System) pollSolve() {
	if s.inFlight == nil {
		return
	}
	select {
	case out := <-s.inFlight.done:
		s.finishSolve(out)
	default:
	}
}

// finishSolve takes the in-flight solve's outcome: count the round,
// then install the plan if it still answers the running system and drop
// it as stale if not.
func (s *System) finishSolve(out solveOutcome) {
	snap := s.inFlight.snap
	s.inFlight = nil
	s.lastSolveMs = out.took.Seconds() * 1e3
	if out.err != nil {
		return
	}
	s.recordRound(out.res)
	if s.current(snap) {
		s.install(snap, out.res)
		return
	}
	s.stalePlans++
	if s.obs != nil {
		// Registered on first use: the registry is part of the golden
		// fingerprints, and a run on the virtual clock never gets here.
		s.obs.reg.Counter(`saspar_plan_decisions_total{decision="stale"}`,
			"Solved-plan decisions by outcome.").Inc()
		s.obs.reg.Emit(s.eng.Clock(), obs.EvPlanSkipped,
			obs.S("reason", skipStale),
			obs.F("new_obj", out.res.Objective),
			obs.F("solve_ms", s.lastSolveMs),
			obs.I("solves", int64(out.res.Solves)),
			obs.I("nodes", out.res.Nodes))
	}
}

// recordRound adds one solved round to the running totals. Only the
// newest result is kept: a served system solves for as long as it
// lives.
func (s *System) recordRound(res *optimizer.Result) {
	s.rounds++
	s.solves += res.Solves
	s.nodes += res.Nodes
	s.lastResult = res
	if s.obs != nil {
		s.obs.solves.Add(float64(res.Solves))
		s.obs.nodes.Add(float64(res.Nodes))
	}
}

// classAssignments expands a result's per-class assignments to one per
// query. Members of a canonical class share one assignment object, so
// the engine's route classes stay collapsed.
func classAssignments(classes []canonicalClass, res *optimizer.Result) map[int]*keyspace.Assignment {
	out := map[int]*keyspace.Assignment{}
	for i, cc := range classes {
		for _, qi := range cc.members {
			out[qi] = res.Assign[i]
		}
	}
	return out
}

// SolveState exposes the solver's progress for the serving report:
// whether a solve is in flight, how many results arrived too late to
// install, and how long the last finished solve took on the wall clock.
// It is not part of Report: none of it repeats from run to run.
func (s *System) SolveState() (inFlight bool, stalePlans int, lastSolveMs float64) {
	return s.inFlight != nil, s.stalePlans, s.lastSolveMs
}
