// Package checkpoint is the virtual-time aligned-barrier checkpoint
// coordinator. It piggybacks on the engine's marker/alignment
// machinery — a checkpoint barrier flows through the same (task, slot)
// edges as a reconfiguration marker and interleaves safely with an
// in-flight PlanDelta — and turns the engine's consistent state cuts
// into stored snapshots: full or incremental (per-key-group delta)
// against a pluggable store, on a configurable interval with bounded
// retention.
//
// Recovery integration lives in internal/core: when the degraded-mode
// loop finishes evacuating a dead node's key groups, it re-installs
// their state from the newest checkpoint that completed before the
// fault was detected. Counting state folds back once; exact state
// restores its aggregate partials and each buffered join row once,
// re-expanded into the window instances still open at the new owner.
package checkpoint

import (
	"fmt"

	"saspar/internal/cluster"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/vtime"
)

// Config controls the coordinator.
type Config struct {
	// Interval is the virtual time between checkpoint barriers. The
	// core layer treats a zero interval as "checkpointing off"; the
	// coordinator itself requires it positive.
	Interval vtime.Duration

	// Retention bounds how many completed checkpoints stay in the
	// store; pruning always keeps the base chain an incremental
	// snapshot needs to materialize. 0 means the default of 4.
	Retention int

	// Incremental stores per-key-group deltas against the previous
	// checkpoint instead of full snapshots.
	Incremental bool

	// FullEvery rebases an incremental chain with a full snapshot every
	// N checkpoints, bounding materialization walks and letting pruning
	// actually free space. 0 means the default of 8.
	FullEvery int

	// StoreNode is the cluster node modelled as hosting the snapshot
	// store: restores ship state from it over the simulated network.
	// If it crashed, the courier falls back to the first live node
	// (mirroring the state-movement courier in the engine).
	StoreNode int

	// Store is the snapshot store; nil means a fresh MemStore.
	Store Store
}

// Validate checks the checkpoint knobs and returns a descriptive error
// for the first violation, following the engine/core Config.Validate
// convention.
func (c Config) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("checkpoint: Interval must be positive, got %v", c.Interval)
	}
	if c.Retention < 0 {
		return fmt.Errorf("checkpoint: Retention must be non-negative (0 = default), got %d", c.Retention)
	}
	if c.FullEvery < 0 {
		return fmt.Errorf("checkpoint: FullEvery must be non-negative (0 = default), got %d", c.FullEvery)
	}
	if c.StoreNode < 0 {
		return fmt.Errorf("checkpoint: StoreNode must be non-negative, got %d", c.StoreNode)
	}
	return nil
}

// Coordinator drives periodic checkpoints over one engine: it injects
// a barrier every Interval, harvests the completed capture, builds the
// (full or delta) snapshot, stores it, and prunes past Retention.
type Coordinator struct {
	eng *engine.Engine
	cfg Config

	nextID    int64
	inFlight  bool
	lastStart vtime.Time
	sinceFull int

	// last mirrors the newest completed checkpoint's materialized
	// state, so delta computation never re-reads the store.
	last   map[GroupKey]engine.CkptGroup
	lastID int64

	completed   int
	bytesStored float64

	// pinned refcounts snapshot ids an in-flight staged migration
	// materializes from; prune preserves their base chains until every
	// pin is released.
	pinned map[int64]int

	co *coordObs // nil without a telemetry registry
}

type coordObs struct {
	reg       *obs.Registry
	completed *obs.Counter
	duration  *obs.Histogram
	size      *obs.Histogram
	storeErrs *obs.Counter
}

// New builds a coordinator for eng. reg may be nil (no telemetry).
func New(eng *engine.Engine, cfg Config, reg *obs.Registry) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Retention == 0 {
		cfg.Retention = 4
	}
	if cfg.FullEvery == 0 {
		cfg.FullEvery = 8
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.StoreNode >= eng.Config().Nodes {
		return nil, fmt.Errorf("checkpoint: StoreNode %d out of range (cluster has %d nodes)", cfg.StoreNode, eng.Config().Nodes)
	}
	c := &Coordinator{eng: eng, cfg: cfg}
	if reg != nil {
		c.co = &coordObs{
			reg: reg,
			completed: reg.Counter("saspar_checkpoints_completed_total",
				"Aligned-barrier checkpoints fully captured and stored."),
			duration: reg.Histogram("saspar_checkpoint_duration_seconds",
				"Barrier injection to full alignment. Unit: virtual seconds.",
				[]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8}),
			size: reg.Histogram("saspar_checkpoint_bytes",
				"Modelled size of each stored snapshot (delta size for incrementals).",
				[]float64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9}),
			storeErrs: reg.Counter("saspar_checkpoint_store_errors_total",
				"Snapshots dropped because the store rejected them."),
		}
		reg.Gauge("saspar_checkpoint_interval_seconds",
			"Configured virtual-time checkpoint interval. Unit: virtual seconds.").
			Set(cfg.Interval.Seconds())
	}
	return c, nil
}

// Poll advances the coordinator one control-loop tick: harvest a
// completed barrier if one is in flight, otherwise inject the next
// barrier once Interval has elapsed since the last injection. At most
// one barrier is in flight at a time (the engine enforces the same).
func (c *Coordinator) Poll() {
	now := c.eng.Clock()
	if c.inFlight {
		d, ok := c.eng.CompleteCheckpoint()
		if !ok {
			return
		}
		c.inFlight = false
		c.finish(d)
		return
	}
	if now.Sub(c.lastStart) < c.cfg.Interval {
		return
	}
	id := c.nextID + 1
	if err := c.eng.BeginCheckpoint(id); err != nil {
		return // a stray in-flight barrier; retry next tick
	}
	c.nextID = id
	c.inFlight = true
	c.lastStart = now
	if c.co != nil {
		c.co.reg.Emit(now, obs.EvCheckpointBegin, obs.I("checkpoint", id))
	}
}

// finish stores one completed capture as a snapshot and prunes.
func (c *Coordinator) finish(d *engine.CheckpointData) {
	snap := &Snapshot{ID: d.ID, Barrier: d.Barrier, CompletedAt: d.CompletedAt}
	full := !c.cfg.Incremental || c.last == nil || c.sinceFull >= c.cfg.FullEvery
	if full {
		snap.Full = true
		snap.Groups = d.Groups
		snap.Bytes = d.Bytes
	} else {
		snap.BaseID = c.lastID
		snap.Groups, snap.Removed = delta(c.last, d.Groups)
		for i := range snap.Groups {
			snap.Bytes += c.eng.GroupBytes(&snap.Groups[i])
		}
	}
	if err := c.cfg.Store.Put(snap); err != nil {
		// A failed Put drops this checkpoint; the previous one stays
		// the restore point and the chain stays intact.
		if c.co != nil {
			c.co.storeErrs.Inc()
		}
		return
	}
	// Advance the full/incremental cadence only once the snapshot is
	// durably stored: a dropped rebase must not let the incremental
	// chain run past the FullEvery bound on materialization walks.
	if full {
		c.sinceFull = 0
	} else {
		c.sinceFull++
	}
	c.last = map[GroupKey]engine.CkptGroup{}
	for _, g := range d.Groups {
		c.last[GroupKey{g.Query, g.Group}] = g
	}
	c.lastID = d.ID
	c.completed++
	c.bytesStored += snap.Bytes
	c.prune()
	if c.co != nil {
		dur := d.CompletedAt.Sub(d.Barrier)
		c.co.completed.Inc()
		c.co.duration.Observe(dur.Seconds())
		c.co.size.Observe(snap.Bytes)
		fullAttr := int64(0)
		if snap.Full {
			fullAttr = 1
		}
		c.co.reg.Emit(c.eng.Clock(), obs.EvCheckpointComplete,
			obs.I("checkpoint", d.ID),
			obs.I("groups", int64(len(d.Groups))),
			obs.F("bytes", snap.Bytes),
			obs.F("duration_ms", dur.Seconds()*1e3),
			obs.I("full", fullAttr))
	}
}

// prune deletes snapshots beyond Retention, always preserving the
// transitive base chains the retained incrementals materialize
// through — and the chains of any snapshot a staged migration has
// pinned, so an in-flight stage can always re-materialize.
func (c *Coordinator) prune() {
	ids, err := c.cfg.Store.List()
	if err != nil || len(ids) <= c.cfg.Retention {
		return
	}
	keep := map[int64]bool{}
	chain := func(id int64) {
		for id != 0 && !keep[id] {
			keep[id] = true
			s, err := c.cfg.Store.Get(id)
			if err != nil || s.Full {
				break
			}
			id = s.BaseID
		}
	}
	for _, id := range ids[len(ids)-c.cfg.Retention:] {
		chain(id)
	}
	for id, refs := range c.pinned {
		if refs > 0 {
			chain(id)
		}
	}
	for _, id := range ids {
		if !keep[id] {
			c.cfg.Store.Delete(id)
		}
	}
}

// Pin marks snapshot id (and, transitively, its base chain) as exempt
// from pruning until the matching Unpin — the hold an in-flight staged
// migration takes on the chain it materialized from.
func (c *Coordinator) Pin(id int64) {
	if c.pinned == nil {
		c.pinned = map[int64]int{}
	}
	c.pinned[id]++
}

// Unpin releases one Pin hold on snapshot id. The chain becomes
// collectible on the next prune once no holds remain.
func (c *Coordinator) Unpin(id int64) {
	if c.pinned == nil {
		return
	}
	if c.pinned[id]--; c.pinned[id] <= 0 {
		delete(c.pinned, id)
	}
}

// Completed reports how many checkpoints finished end to end.
func (c *Coordinator) Completed() int { return c.completed }

// BytesStored reports the cumulative modelled bytes written to the
// store (delta sizes for incrementals).
func (c *Coordinator) BytesStored() float64 { return c.bytesStored }

// LastID reports the newest completed checkpoint's id (0 when none).
func (c *Coordinator) LastID() int64 { return c.lastID }

// Store exposes the snapshot store.
func (c *Coordinator) Store() Store { return c.cfg.Store }

// Interval reports the configured checkpoint interval.
func (c *Coordinator) Interval() vtime.Duration { return c.cfg.Interval }

// LatestBefore returns the newest checkpoint completed at or before t,
// materialized through its incremental chain into canonical group
// order. ok is false when no completed checkpoint qualifies (or its
// chain was lost with the store).
func (c *Coordinator) LatestBefore(t vtime.Time) ([]engine.CkptGroup, *Snapshot, bool) {
	ids, err := c.cfg.Store.List()
	if err != nil {
		return nil, nil, false
	}
	for i := len(ids) - 1; i >= 0; i-- {
		s, err := c.cfg.Store.Get(ids[i])
		if err != nil || s.CompletedAt > t {
			continue
		}
		state, err := materialize(c.cfg.Store, s.ID)
		if err != nil {
			continue
		}
		return sortedGroups(state), s, true
	}
	return nil, nil, false
}

// LatestFor returns, from the newest checkpoint completed at or before
// t, the materialized state of exactly the requested (query, group)
// cells — the per-group-set chain materialization a staged migration
// stages its destinations from. The snapshot is returned so the caller
// can Pin its chain against pruning for the stage's lifetime. ok is
// false when no completed checkpoint qualifies; a qualifying chain
// that simply holds none of the requested cells returns ok with an
// empty slice (the caller treats that as an unusable stage and falls
// back to pause-and-transfer).
func (c *Coordinator) LatestFor(t vtime.Time, cells map[GroupKey]bool) ([]engine.CkptGroup, *Snapshot, bool) {
	groups, snap, ok := c.LatestBefore(t)
	if !ok {
		return nil, nil, false
	}
	var out []engine.CkptGroup
	for _, g := range groups {
		if cells[GroupKey{Query: g.Query, Group: g.Group}] {
			out = append(out, g)
		}
	}
	return out, snap, true
}

// StoreNodeID reports the cluster node configured to host the snapshot
// store. Unlike CourierNode it never falls back: staged migration
// checks it against engine health and takes the pause-and-transfer
// path when the store host is dead.
func (c *Coordinator) StoreNodeID() cluster.NodeID { return cluster.NodeID(c.cfg.StoreNode) }

// CourierNode returns the node modelled as shipping restored state —
// the snapshot-store host, or the first live node when it crashed
// (mirroring the state-movement courier fallback in the engine).
func (c *Coordinator) CourierNode() cluster.NodeID {
	n := cluster.NodeID(c.cfg.StoreNode)
	if !c.eng.NodeDown(n) {
		return n
	}
	for i := 0; i < c.eng.Config().Nodes; i++ {
		if id := cluster.NodeID(i); !c.eng.NodeDown(id) {
			return id
		}
	}
	return n
}
