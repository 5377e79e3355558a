package engine

import (
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file is the engine side of checkpoint-staged live migration: a
// planned reconfiguration whose moving (query, group) cells are covered
// by a checkpoint chain pre-stages the destination from the snapshot
// while the source keeps processing, so the AQE alignment point ships
// only the since-barrier residual over the network.
//
// The staged snapshot never enters live window state — destinations
// fold the full extracted payload at merge time exactly as
// pause-and-transfer does, so exactly-once counting semantics and the
// within-mode byte-identical determinism contract hold by construction.
// What staging changes is the transfer bill at alignment: extractState
// looks the moving cell up in the staged registry and computes the
// usable staged fraction (the snapshot weight aged by the same
// barrier-age decay rule RestoreGroup applies on recovery), and
// dispatchExtract ships and deserializes only the remainder. The
// control layer (internal/core) decides when to stage, ships the
// staged bytes courier→destination over netsim ahead of time, and
// voids the registry when the migration completes, aborts, or a crash
// lands mid-stage.

// stagedCell is one pre-staged (query, group) cell: the snapshot's
// total state weight and the barrier instant it was current at.
type stagedCell struct {
	weight  float64
	barrier vtime.Time
}

// StageGroup registers one checkpointed key group as pre-staged at its
// migration destination and returns the modelled wire size of the
// staged transfer (the same GroupBytes convention restores ship with).
// Returns 0 — and stages nothing — when the query is gone or the
// snapshot holds no state. Must be called between ticks (the
// sequential control path): the registry is read, never written, during
// the parallel slot phase.
func (e *Engine) StageGroup(cg CkptGroup, barrier vtime.Time) float64 {
	if cg.Query < 0 || cg.Query >= len(e.queries) || e.queries[cg.Query].inactive {
		return 0
	}
	w := cellWeight(&cg)
	if w <= 0 {
		return 0
	}
	if e.staged == nil {
		e.staged = map[pendKey]stagedCell{}
	}
	e.staged[pendKey{cg.Query, cg.Group}] = stagedCell{weight: w, barrier: barrier}
	bytes := e.GroupBytes(&cg)
	e.stagedBytesTotal += bytes
	return bytes
}

// VoidStagedState clears the staged-cell registry: the in-flight
// migration completed (every moving cell's residual shipped), aborted,
// or a crash invalidated the stage. Extractions already dispatched keep
// the discount they shipped with; nothing else refers to the registry.
// Must be called between ticks, like StageGroup.
func (e *Engine) VoidStagedState() { e.staged = nil }

// StagedCells reports how many cells are currently registered as
// pre-staged (test hook).
func (e *Engine) StagedCells() int { return len(e.staged) }

// stagedDiscount reports the usable staged fraction of a moving cell's
// state weight: the snapshot weight aged to now with the same
// exponential barrier-age decay RestoreGroup applies when re-seeding
// from a checkpoint (counting state genuinely decays out of the window;
// for exact windows the same curve is a conservative model of the
// staged partials' churn since the barrier), capped at the live weight
// actually extracted. Called from extractState inside the slot phase:
// the registry is read-only there, so concurrent shard workers are
// safe.
func (e *Engine) stagedDiscount(qi int, g keyspace.GroupID, cur float64, tau float64) float64 {
	sc, ok := e.staged[pendKey{qi, g}]
	if !ok || cur <= 0 {
		return 0
	}
	usable := sc.weight * e.barrierAge(sc.barrier, tau)
	if usable > cur {
		usable = cur
	}
	return usable
}

// StagedBytes reports the cumulative modelled bytes of window state
// pre-staged to migration destinations through StageGroup.
func (e *Engine) StagedBytes() float64 { return e.stagedBytesTotal }

// ResidualBytes reports the cumulative at-alignment wire bytes shipped
// for moving cells that had a staged copy — the since-barrier residual.
func (e *Engine) ResidualBytes() float64 { return e.migResidualBytes }

// AlignmentBytes reports the cumulative payload bytes of moved window
// state shipped at alignment points (each moved cell counted once,
// though it travels two network legs), after any staged discount — the
// figure's "reshuffle bytes at alignment" axis.
func (e *Engine) AlignmentBytes() float64 { return e.migAlignBytes }
