package engine

import (
	"fmt"
	"math"
	"sort"

	"saspar/internal/cluster"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// This file is the engine side of aligned-barrier checkpointing: the
// barrier injection, the per-slot capture at alignment, the completion
// check, and the restore path. The coordinator policy (intervals,
// stores, incremental deltas, retention) lives in internal/checkpoint.
//
// A checkpoint barrier is a marker like any other: it is broadcast on
// every (task, slot) edge and each slot blocks at it until all edges
// delivered it, so the snapshot cut is consistent — every pre-barrier
// tuple is reflected, no post-barrier tuple is. A reconfiguration in
// flight at barrier time is handled with the pendingState machinery:
// a slot that aligns while a moved-in group's state is still traveling
// marks the group pending, and mergeState folds the state into the
// capture when it lands, so the snapshot stays complete across an
// interleaved PlanDelta.

// CkptGroup is one key group's captured window state. In counting mode
// Weight holds the per-side in-window modelled tuple weight (the EWMA
// rate times the window range); in exact mode Agg/Join hold the
// concrete partials, sorted so identical runs produce identical bytes.
type CkptGroup struct {
	Query  int
	Group  keyspace.GroupID
	Weight []float64    `json:",omitempty"` // counting mode, per input side
	Agg    []AggPartial `json:",omitempty"` // exact mode aggregation partials
	Join   [2][]Tuple   // exact mode join buffers per side
}

// StateKey identifies one (query, key group) window-state cell.
type StateKey struct {
	Query int
	Group keyspace.GroupID
}

// CheckpointData is one completed checkpoint as assembled by the
// engine: every key group's state at the barrier cut, sorted by
// (Query, Group).
type CheckpointData struct {
	ID          int64
	Barrier     vtime.Time // clock when the barrier was injected
	CompletedAt vtime.Time // clock when every live slot had aligned
	Epoch       int64      // marker epoch the barrier traveled under
	Groups      []CkptGroup
	Bytes       float64 // modelled wire size of the captured state
}

// engCkpt is the in-flight capture state of one checkpoint barrier.
// The pointer on Engine stays nil until the first BeginCheckpoint, so
// checkpoint-free runs pay a single never-taken nil check per hook —
// the same discipline as nodeDown and obs.
type engCkpt struct {
	active  bool
	id      int64
	epoch   int64
	barrier vtime.Time
	// exact accumulates per-group captured state (exact mode only;
	// counting-mode state is engine-global and is read at completion).
	exact map[pendKey]*CkptGroup
	// pending marks moved-in groups whose state was in flight when
	// their new owner aligned; mergeState completes their capture.
	pending map[pendKey]bool
}

func (c *engCkpt) group(qi int, g keyspace.GroupID) *CkptGroup {
	k := pendKey{qi, g}
	cg := c.exact[k]
	if cg == nil {
		cg = &CkptGroup{Query: qi, Group: g}
		c.exact[k] = cg
	}
	return cg
}

// BeginCheckpoint injects checkpoint barrier id through the marker
// channels. The barrier claims its own epoch but does not touch
// inFlightEpoch, so reconfigurations keep their own lifecycle and the
// two marker kinds interleave freely. Returns an error while a
// previous checkpoint barrier is still aligning.
func (e *Engine) BeginCheckpoint(id int64) error {
	if e.ckpt != nil && e.ckpt.active {
		return fmt.Errorf("engine: checkpoint %d still aligning", e.ckpt.id)
	}
	if e.ckpt == nil {
		e.ckpt = &engCkpt{}
	}
	e.epoch++
	*e.ckpt = engCkpt{
		active:  true,
		id:      id,
		epoch:   e.epoch,
		barrier: e.clock,
		exact:   map[pendKey]*CkptGroup{},
		pending: map[pendKey]bool{},
	}
	e.broadcastMarker(&Marker{Epoch: e.epoch, Kind: MarkerCheckpoint, Ckpt: id})
	return nil
}

// stageCheckpointCapture snapshots slot s's window state at its
// barrier alignment point (exact mode; counting-mode state is
// engine-global and is read once at completion) into a staged event;
// foldCkptCapture applies it to the in-flight capture at barrier A.
// Fragments are per (query, group) and copied by value, so the live
// state keeps mutating without aliasing the capture; their order is
// free because assembleCheckpoint sorts every group's payload before
// deriving bytes. Moved-in groups whose state is still in flight are
// marked pending instead — mergeState adds their state to the capture
// when it lands.
func (e *Engine) stageCheckpointCapture(s *slot, m *Marker) {
	ck := e.ckpt
	if ck == nil || !ck.active || ck.id != m.Ckpt {
		return // stale barrier of an abandoned checkpoint
	}
	if !e.cfg.ExactWindows {
		return
	}
	ev := s.fx.stage(evtCkptCapture)
	for k := range s.pendingState {
		ev.pend = append(ev.pend, k)
	}
	ev.frags = e.captureExact(s)
}

// ckptMergeHook folds a moved group's just-landed state into the
// in-flight capture when the group's new owner aligned before the
// state arrived. Called from the unstaged mergeState path (checkpoint
// restore); live slot-phase merges stage an evtCkptMerge instead.
// Entry payloads are copied by value, so entry recycling never aliases
// the capture.
func (e *Engine) ckptMergeHook(k pendKey, en *entry) {
	ck := e.ckpt
	if ck == nil || !ck.active || !ck.pending[k] {
		return
	}
	delete(ck.pending, k)
	cg := ck.group(k.query, k.group)
	cg.Agg = append(cg.Agg, en.stAgg...)
	cg.Join[0] = append(cg.Join[0], en.stJoin[0]...)
	cg.Join[1] = append(cg.Join[1], en.stJoin[1]...)
}

// ckptDropPending releases an in-flight checkpoint's wait on a moved
// group whose state entry was destroyed (dead target slot): the state
// is genuinely gone, so the checkpoint completes without it.
func (e *Engine) ckptDropPending(k pendKey) {
	if e.ckpt != nil && e.ckpt.active {
		delete(e.ckpt.pending, k)
	}
}

// ckptDropQuery removes a retired query from the in-flight capture.
func (e *Engine) ckptDropQuery(qi int) {
	ck := e.ckpt
	if ck == nil || !ck.active {
		return
	}
	for k := range ck.pending {
		if k.query == qi {
			delete(ck.pending, k)
		}
	}
	for k := range ck.exact {
		if k.query == qi {
			delete(ck.exact, k)
		}
	}
}

// CompleteCheckpoint returns the assembled checkpoint once its barrier
// fully aligned: every live slot aligned on the barrier epoch and no
// captured group is still waiting for in-flight moved state. Counting
// mode additionally waits for outstanding state transfers to merge —
// its state is engine-global, so a transfer in flight at assembly time
// would be invisible. Returns (nil, false) while incomplete or when no
// checkpoint is in flight.
func (e *Engine) CompleteCheckpoint() (*CheckpointData, bool) {
	ck := e.ckpt
	if ck == nil || !ck.active {
		return nil, false
	}
	if e.alignedSlots[ck.epoch] < e.liveSlotCount() {
		return nil, false
	}
	if e.cfg.ExactWindows {
		if len(ck.pending) > 0 {
			return nil, false
		}
	} else if e.outstandingState != 0 {
		return nil, false
	}
	d := e.assembleCheckpoint()
	ck.active = false
	ck.exact, ck.pending = nil, nil
	return d, true
}

func (e *Engine) assembleCheckpoint() *CheckpointData {
	ck := e.ckpt
	d := &CheckpointData{ID: ck.id, Barrier: ck.barrier, CompletedAt: e.clock, Epoch: ck.epoch}
	if e.cfg.ExactWindows {
		for _, cg := range ck.exact {
			if len(cg.Agg) == 0 && len(cg.Join[0]) == 0 && len(cg.Join[1]) == 0 {
				continue
			}
			sortGroupState(cg)
			d.Groups = append(d.Groups, *cg)
		}
	} else {
		for qi, q := range e.queries {
			if q.inactive {
				continue
			}
			c := e.qcount[qi]
			tau := q.spec.Window.Range.Seconds()
			for g := 0; g < e.cfg.NumGroups; g++ {
				gid := keyspace.GroupID(g)
				var total float64
				w := make([]float64, len(c.rate))
				for side := range c.rate {
					c.decayTo(side, gid, e.clock, tau)
					w[side] = c.rate[side][gid] * tau
					total += w[side]
				}
				if total <= 0 {
					continue
				}
				d.Groups = append(d.Groups, CkptGroup{Query: qi, Group: gid, Weight: w})
			}
		}
	}
	sort.Slice(d.Groups, func(i, j int) bool {
		if d.Groups[i].Query != d.Groups[j].Query {
			return d.Groups[i].Query < d.Groups[j].Query
		}
		return d.Groups[i].Group < d.Groups[j].Group
	})
	for i := range d.Groups {
		d.Bytes += e.GroupBytes(&d.Groups[i])
	}
	return d
}

// sortGroupState orders a captured group's payload deterministically:
// the engine's state maps iterate in random order, but checkpoint
// bytes must be identical for identical runs at any worker count.
func sortGroupState(cg *CkptGroup) {
	sort.Slice(cg.Agg, func(i, j int) bool {
		if cg.Agg[i].Win != cg.Agg[j].Win {
			return cg.Agg[i].Win < cg.Agg[j].Win
		}
		return cg.Agg[i].Key < cg.Agg[j].Key
	})
	for side := range cg.Join {
		buf := cg.Join[side]
		sort.SliceStable(buf, func(i, j int) bool { return tupleLess(&buf[i], &buf[j]) })
	}
}

func tupleLess(a, b *Tuple) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	for c := range a.Cols {
		if a.Cols[c] != b.Cols[c] {
			return a.Cols[c] < b.Cols[c]
		}
	}
	return false
}

// GroupBytes models the wire size of one captured group: its state
// weight times the query's primary-input tuple size — the same
// convention extractAndReturn ships moved state with.
func (e *Engine) GroupBytes(cg *CkptGroup) float64 {
	if cg.Query < 0 || cg.Query >= len(e.queries) {
		return 0
	}
	return cellWeight(cg) * e.streams[e.queries[cg.Query].spec.Inputs[0].Stream].BytesPerTuple
}

// cellWeight is the state weight of one captured group — counting-mode
// side weights, exact-mode aggregate partials and buffered join tuples —
// the one rule a cell is sized by when it is shipped, staged or
// restored.
func cellWeight(cg *CkptGroup) float64 {
	var w float64
	for _, x := range cg.Weight {
		w += x
	}
	for _, p := range cg.Agg {
		w += p.Weight
	}
	return w + float64(len(cg.Join[0])+len(cg.Join[1]))
}

// barrierAge is the share of a snapshot whose barrier went out at
// barrier that a window of tau seconds still holds now: the exponential
// decay decayTo applies to live rates, so a restored or staged copy
// matches what an uninterrupted run would still hold in-window.
func (e *Engine) barrierAge(barrier vtime.Time, tau float64) float64 {
	if dt := e.clock.Sub(barrier).Seconds(); dt > 0 && tau > 0 {
		return math.Exp(-dt / tau)
	}
	return 1
}

// RestoreGroup re-installs one checkpointed key group's window state
// at the group's current owner. barrier is the virtual time the
// snapshot's checkpoint barrier was injected — the instant the
// captured state was current. Exact mode replays the snapshot
// through the same mergeState path a live migration uses, so held
// tuples that piled up while the group awaited state replay in arrival
// order afterwards (its tuples carry their own timestamps, so normal
// window eviction ages them; barrier is unused); counting-mode weights
// fold into the engine-global EWMA exactly once, decayed for the
// virtual time elapsed since barrier — the slice of the snapshot that
// would already have slid out of the window by restore time must not
// be re-installed. Exact-mode join rows are captured once each and
// re-expanded into every window instance containing them that is still
// open at the owner, so sliding joins restore what the source held.
// Returns the modelled bytes shipped for the restore; 0 when the query
// is gone or the owner's node is down.
func (e *Engine) RestoreGroup(cg CkptGroup, barrier vtime.Time) float64 {
	if cg.Query < 0 || cg.Query >= len(e.queries) || e.queries[cg.Query].inactive {
		return 0
	}
	q := e.queries[cg.Query]
	bytes := e.GroupBytes(&cg)
	if !e.cfg.ExactWindows {
		c := e.qcount[cg.Query]
		tau := q.spec.Window.Range.Seconds()
		decay := e.barrierAge(barrier, tau)
		for side := 0; side < len(c.rate) && side < len(cg.Weight); side++ {
			c.decayTo(side, cg.Group, e.clock, tau)
			c.rate[side][cg.Group] += cg.Weight[side] * decay / tau
		}
		e.restoredBytes += bytes
		return bytes
	}
	s := e.slots[q.assign.Partition(cg.Group)]
	if e.nodeIsDown(s.node) {
		return 0
	}
	nr := e.nodes[s.node]
	en := nr.newEntry()
	en.kind = entryState
	en.stQuery = cg.Query
	en.stGroup = cg.Group
	en.stAgg = append(en.stAgg, cg.Agg...)
	en.stJoin[0] = append(en.stJoin[0], cg.Join[0]...)
	en.stJoin[1] = append(en.stJoin[1], cg.Join[1]...)
	en.stWeight = cellWeight(&cg)
	e.outstandingState++ // mergeState's decrement balances this
	e.mergeState(s, en, false)
	nr.recycle(en)
	e.restoredBytes += bytes
	return bytes
}

// RestoredBytes reports the cumulative modelled bytes of window state
// re-installed through RestoreGroup.
func (e *Engine) RestoredBytes() float64 { return e.restoredBytes }

// markStateDestroyed records that a node crash destroyed cell k's
// window state (resident on the dead node, or torn up while moving).
func (e *Engine) markStateDestroyed(k pendKey) {
	if e.destroyedState == nil {
		e.destroyedState = map[pendKey]bool{}
	}
	e.destroyedState[k] = true
}

// DrainDestroyedState returns the (query, group) cells whose window
// state node crashes destroyed since the last drain, and clears the
// record. This is the exact set a checkpoint restore may re-seed:
// cells evacuated live off a derated-but-alive node, or healed in
// place by an expiring transient, never appear here — restoring those
// would stack the snapshot on top of intact state.
func (e *Engine) DrainDestroyedState() []StateKey {
	if len(e.destroyedState) == 0 {
		return nil
	}
	out := make([]StateKey, 0, len(e.destroyedState))
	for k := range e.destroyedState {
		out = append(out, StateKey{Query: k.query, Group: k.group})
	}
	e.destroyedState = nil
	return out
}

// destroyNodeState destroys the window state resident on a crashed
// node — exact-mode slot state plus held tuples, or the counting-mode
// share of groups assigned to the node's slots — and returns its
// modelled byte size. This is the loss a checkpoint exists to bound:
// without one it is unrecoverable; with one, recovery re-seeds the
// evacuated groups from the last completed snapshot.
func (e *Engine) destroyNodeState(n cluster.NodeID) float64 {
	// lost is a float fold over map-backed state, so every map is walked
	// in sorted key order: the total must be a pure function of the
	// destroyed state, not of map iteration, for traces to stay
	// byte-identical run to run.
	var lost float64
	for _, s := range e.slots {
		if s.node != n {
			continue
		}
		lost += e.destroyExact(s)
		heldKeys := make([]pendKey, 0, len(s.held))
		for k := range s.held {
			heldKeys = append(heldKeys, k)
		}
		sort.Slice(heldKeys, func(i, j int) bool {
			if heldKeys[i].query != heldKeys[j].query {
				return heldKeys[i].query < heldKeys[j].query
			}
			return heldKeys[i].group < heldKeys[j].group
		})
		for _, k := range heldKeys {
			bpt := e.streams[e.queries[k.query].spec.Inputs[0].Stream].BytesPerTuple
			lost += s.held[k].weight() * bpt
		}
		s.held = nil
	}
	if !e.cfg.ExactWindows {
		for qi, q := range e.queries {
			if q.inactive {
				continue
			}
			c := e.qcount[qi]
			tau := q.spec.Window.Range.Seconds()
			bpt := e.streams[q.spec.Inputs[0].Stream].BytesPerTuple
			for g := 0; g < e.cfg.NumGroups; g++ {
				gid := keyspace.GroupID(g)
				if e.slots[q.assign.Partition(gid)].node != n {
					continue
				}
				e.markStateDestroyed(pendKey{qi, gid})
				for side := range c.rate {
					c.decayTo(side, gid, e.clock, tau)
					lost += c.rate[side][gid] * tau * bpt
					c.rate[side][gid] = 0
				}
			}
		}
	}
	return lost
}
