package engine

import (
	"reflect"
	"testing"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// Aligned-barrier checkpoint semantics: a barrier flowing through the
// marker channels captures a consistent cut of window state, completes
// even when a reconfiguration or a node crash is in flight, and the
// capture is byte-deterministic for a fixed seed.

// driveCheckpoint injects barrier `id` and runs ticks until it
// completes, failing the test if it never does.
func driveCheckpoint(t *testing.T, e *Engine, id int64) *CheckpointData {
	t.Helper()
	if err := e.BeginCheckpoint(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e.Run(e.Config().Tick)
		if d, ok := e.CompleteCheckpoint(); ok {
			return d
		}
	}
	t.Fatal("checkpoint never completed")
	return nil
}

func TestCheckpointCapturesExactState(t *testing.T) {
	run := func() *CheckpointData {
		e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
		if err != nil {
			t.Fatal(err)
		}
		e.SetStreamRate(0, 200)
		e.Run(3 * vtime.Second)
		return driveCheckpoint(t, e, 1)
	}
	d := run()
	if d.ID != 1 || len(d.Groups) == 0 || d.Bytes <= 0 {
		t.Fatalf("empty capture: id=%d groups=%d bytes=%v", d.ID, len(d.Groups), d.Bytes)
	}
	for i := 1; i < len(d.Groups); i++ {
		a, b := d.Groups[i-1], d.Groups[i]
		if a.Query > b.Query || (a.Query == b.Query && a.Group >= b.Group) {
			t.Fatalf("groups not in canonical order at %d: %+v then %+v", i, a, b)
		}
	}
	for _, g := range d.Groups {
		if len(g.Agg) == 0 && len(g.Join[0]) == 0 && len(g.Join[1]) == 0 {
			t.Fatalf("captured group %d/%d carries no state", g.Query, g.Group)
		}
	}
	// Fixed seed, fixed schedule: the capture must be identical on a
	// repeat run — the determinism the snapshot layer builds on.
	if !reflect.DeepEqual(d, run()) {
		t.Fatal("identical runs captured different checkpoints")
	}
}

func TestCheckpointCapturesCountingState(t *testing.T) {
	cfg := faultConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 64)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 20000)
	e.Run(3 * vtime.Second)
	d := driveCheckpoint(t, e, 1)
	if len(d.Groups) == 0 || d.Bytes <= 0 {
		t.Fatalf("counting capture empty: groups=%d bytes=%v", len(d.Groups), d.Bytes)
	}
	for _, g := range d.Groups {
		var w float64
		for _, s := range g.Weight {
			w += s
		}
		if w <= 0 {
			t.Fatalf("counting group %d/%d captured no weight", g.Query, g.Group)
		}
	}
}

func TestCheckpointRejectsConcurrentBarrier(t *testing.T) {
	e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(vtime.Second)
	if err := e.BeginCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := e.BeginCheckpoint(2); err == nil {
		t.Fatal("second in-flight barrier accepted")
	}
}

// TestCheckpointInterleavedWithReconfigAndCrash is the regression test
// for the replay path in mergeState: a checkpoint barrier chases a
// reconfiguration marker through the same edges while the crash of a
// migration-target node destroys some of the state in flight. The
// checkpoint must still complete (destroyed pending groups are dropped
// from the capture, not waited on), the reconfiguration must still
// complete, and every live slot must have replayed its parked tuples —
// held buffers drain to empty in arrival order once the moved-in state
// lands.
func TestCheckpointInterleavedWithReconfigAndCrash(t *testing.T) {
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(3 * vtime.Second)

	// Reconfig marker first, checkpoint barrier right behind it on the
	// same edges (per-edge FIFO: every slot observes them in this
	// order), then a crash mid-migration.
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	if err := e.BeginCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	e.Run(cfg.Tick)
	e.SetNodeDown(3, true)

	var d *CheckpointData
	for i := 0; i < 300 && (d == nil || !e.ReconfigComplete(epoch)); i++ {
		e.Run(cfg.Tick)
		if d == nil {
			d, _ = e.CompleteCheckpoint()
		}
	}
	if d == nil {
		t.Fatal("checkpoint never completed with crash + reconfig in flight")
	}
	if !e.ReconfigComplete(epoch) {
		t.Fatal("reconfiguration never completed")
	}
	e.InjectFinalize()

	// Drain, then: no live slot may still be parking tuples (the merge
	// replayed them), and the engine must still be producing results.
	e.Run(2 * vtime.Second)
	for i, s := range e.slots {
		if e.NodeDown(s.node) {
			continue
		}
		for k, held := range s.held {
			if held.rows() != 0 {
				t.Fatalf("slot %d still holds %d tuples for %v after merge", i, held.rows(), k)
			}
		}
	}
	before := len(e.Results(0))
	e.Run(2 * vtime.Second)
	if len(e.Results(0)) <= before {
		t.Fatal("engine stopped emitting results after crash + checkpoint + reconfig")
	}
}

// TestCheckpointPendingGateAndMergeHook white-boxes the completion
// gate: a group whose state is mid-migration at capture time keeps the
// checkpoint open; the mergeState hook folds the landed state into the
// capture and releases it.
func TestCheckpointPendingGateAndMergeHook(t *testing.T) {
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(2 * vtime.Second)

	// Force one group into the mid-migration state before the barrier.
	s := e.slots[0]
	g := keyspace.GroupID(0)
	k := pendKey{0, g}
	s.pendingState[k] = true
	e.outstandingState++

	if err := e.BeginCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Run(cfg.Tick)
		if _, ok := e.CompleteCheckpoint(); ok {
			t.Fatal("checkpoint completed while a captured group was still pending")
		}
		if e.ckpt.pending[k] {
			break
		}
		if i == 99 {
			t.Fatal("barrier never reached the slot with the pending group")
		}
	}

	// The migrated state lands: the hook folds it into the capture.
	en := &entry{kind: entryState, stQuery: 0, stGroup: g,
		stAgg: []AggPartial{{Win: e.Clock(), Key: 0, Weight: 7, Sum: 3}}}
	e.mergeState(s, en, false)
	if e.ckpt.pending[k] {
		t.Fatal("merge hook did not release the pending group")
	}
	d, ok := e.CompleteCheckpoint()
	if !ok {
		t.Fatal("checkpoint still blocked after the pending state landed")
	}
	found := false
	for _, cg := range d.Groups {
		if cg.Query == 0 && cg.Group == g {
			for _, p := range cg.Agg {
				if p.Weight == 7 && p.Sum == 3 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("merged state missing from the completed capture")
	}
}

// TestCrashDestroysResidentState pins the fail-stop semantics this PR
// adds: window state resident on a crashed node is destroyed and
// tallied into LostBytes (this is the loss checkpointing bounds).
func TestCrashDestroysResidentState(t *testing.T) {
	e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(3 * vtime.Second)
	pre := e.LostBytes()
	// Node 2's slot demonstrably owns keys under this seed (node 3's
	// happens not to).
	e.SetNodeDown(2, true)
	if e.LostBytes() <= pre {
		t.Fatal("crash destroyed no resident state")
	}
	for _, s := range e.slots {
		if s.node == 2 && s.exact != nil {
			t.Fatal("dead slot still holds exact state")
		}
	}
}

// TestRestoreGroupReplaysHeldTuples drives the restore path end to
// end: restoring a checkpointed group routes through mergeState, so
// tuples parked for that group replay in arrival order.
func TestRestoreGroupReplaysHeldTuples(t *testing.T) {
	e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(2 * vtime.Second)

	g := keyspace.GroupID(0)
	owner := int(e.Assignment(0).Partition(g))
	s := e.slots[owner]
	k := pendKey{0, g}
	s.pendingState[k] = true
	var tu Tuple
	tu.TS = e.Clock()
	tu.Cols[2] = 1
	e.insert(s, e.queries[0], 0, &tu, g, 5)
	if s.held[k].rows() != 1 {
		t.Fatal("tuple not parked while state pending")
	}

	cg := CkptGroup{Query: 0, Group: g,
		Agg: []AggPartial{{Win: e.Clock(), Key: 0, Weight: 11, Sum: 2}}}
	b := e.RestoreGroup(cg, e.Clock())
	if b <= 0 {
		t.Fatalf("restore reported %v bytes", b)
	}
	if e.RestoredBytes() != b {
		t.Fatalf("RestoredBytes %v != restore result %v", e.RestoredBytes(), b)
	}
	if s.held[k].rows() != 0 {
		t.Fatal("held tuples not replayed by restore")
	}
	if s.pendingState[k] {
		t.Fatal("group still pending after restore")
	}
}

// TestSlidingJoinCaptureRestoreRoundTrip checkpoints a sliding join,
// drops every slot's state, and restores every captured group: each
// window instance must hold exactly the rows per key it held before —
// a row buffered in two instances travels once and re-expands into
// both, and into no instance that already closed.
func TestSlidingJoinCaptureRestoreRoundTrip(t *testing.T) {
	e := joinEngineOver(t, WindowSpec{Range: 2 * vtime.Second, Slide: vtime.Second})
	e.Run(3500 * vtime.Millisecond)
	type cell struct {
		slot, side int
		win        vtime.Time
		key        uint64
	}
	counts := func() map[cell]int32 {
		m := map[cell]int32{}
		for si, s := range e.slots {
			if len(s.exact) == 0 {
				continue
			}
			for _, wt := range s.exact[0].wins {
				for side := range wt.join {
					js := &wt.join[side]
					for j, k := range js.keys.keys {
						m[cell{si, side, wt.start, k}] = js.cnt[j]
					}
				}
			}
		}
		return m
	}
	before := counts()
	wins := map[vtime.Time]bool{}
	for c := range before {
		wins[c.win] = true
	}
	if len(wins) < 2 {
		t.Fatalf("fixture holds %d join cells over %d window instances; want overlapping instances", len(before), len(wins))
	}
	// Capture every slot at one barrier through the staged capture and
	// the barrier-A fold, as an aligned checkpoint does.
	e.ckpt = &engCkpt{active: true, id: 1, barrier: e.Clock(), exact: map[pendKey]*CkptGroup{}, pending: map[pendKey]bool{}}
	for _, s := range e.slots {
		e.stageCheckpointCapture(s, &Marker{Kind: MarkerCheckpoint, Ckpt: 1})
	}
	e.foldSlotPhase(0)
	d := e.assembleCheckpoint()
	e.ckpt.active = false
	for _, s := range e.slots {
		s.exact = nil
	}
	for _, cg := range d.Groups {
		if e.RestoreGroup(cg, d.Barrier) <= 0 {
			t.Fatalf("restore of (%d, %d) shipped nothing", cg.Query, cg.Group)
		}
	}
	if after := counts(); !reflect.DeepEqual(before, after) {
		t.Fatalf("restored join cells differ:\n before %v\n after  %v", before, after)
	}
}

// TestRestoreGroupCountingFoldsRates checks the counting-mode restore:
// the checkpointed per-side weights fold back into the EWMA rates.
func TestRestoreGroupCountingFoldsRates(t *testing.T) {
	cfg := faultConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 64)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 20000)
	e.Run(2 * vtime.Second)
	d := driveCheckpoint(t, e, 1)
	cg := d.Groups[0]
	before := e.GroupBytes(&cg)
	b := e.RestoreGroup(cg, d.Barrier)
	if b <= 0 || before <= 0 {
		t.Fatalf("counting restore moved no bytes (restore=%v size=%v)", b, before)
	}
}

// TestRestoreGroupCountingDecaysToBarrierAge checks that a counting
// restore ages the snapshot: weight restored long after the barrier
// must land as a smaller rate than the same weight restored at the
// barrier, matching what sliding-window decay would have left behind.
func TestRestoreGroupCountingDecaysToBarrierAge(t *testing.T) {
	cfg := faultConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 64)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 20000)
	e.Run(2 * vtime.Second)
	d := driveCheckpoint(t, e, 1)
	cg := d.Groups[0]
	e.SetStreamRate(0, 0) // freeze arrivals so only the restores move the rate

	rate := func() float64 {
		c := e.qcount[cg.Query]
		var r float64
		for side := range c.rate {
			c.decayTo(side, cg.Group, e.clock, e.queries[cg.Query].spec.Window.Range.Seconds())
			r += c.rate[side][cg.Group]
		}
		return r
	}
	base := rate()
	if e.RestoreGroup(cg, e.Clock()) <= 0 {
		t.Fatal("fresh restore moved no bytes")
	}
	fresh := rate() - base
	e.Run(3 * vtime.Second) // age the clock well past the barrier
	base = rate()
	if e.RestoreGroup(cg, d.Barrier) <= 0 {
		t.Fatal("aged restore moved no bytes")
	}
	aged := rate() - base
	if fresh <= 0 || aged <= 0 {
		t.Fatalf("restores installed no rate (fresh=%v aged=%v)", fresh, aged)
	}
	if aged >= fresh*0.8 {
		t.Fatalf("stale snapshot not decayed: aged restore added %v, fresh added %v", aged, fresh)
	}
}

// TestCrashMarksOnlyDeadNodeStateDestroyed pins the contract the core
// recovery loop relies on: DrainDestroyedState reports exactly the
// cells a crash destroyed — groups on live (even derated) nodes never
// appear, so a checkpoint restore cannot double-count intact state.
func TestCrashMarksOnlyDeadNodeStateDestroyed(t *testing.T) {
	cfg := faultConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 64)}, []QuerySpec{aggQuery("q", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 20000)
	e.Run(2 * vtime.Second)

	// Derating alone destroys nothing.
	e.SetNodeCPUFactor(2, 0.3)
	e.SetNodeNICFactor(2, 0.3)
	if got := e.DrainDestroyedState(); len(got) != 0 {
		t.Fatalf("derating marked %d cells destroyed", len(got))
	}

	e.SetNodeDown(3, true)
	destroyed := map[StateKey]bool{}
	for _, k := range e.DrainDestroyedState() {
		destroyed[k] = true
	}
	if len(destroyed) == 0 {
		t.Fatal("crash destroyed no cells")
	}
	a := e.Assignment(0)
	for g := 0; g < a.NumGroups(); g++ {
		gid := keyspace.GroupID(g)
		onDead := e.PartitionNode(int(a.Partition(gid))) == 3
		if destroyed[StateKey{Query: 0, Group: gid}] != onDead {
			t.Fatalf("group %d: destroyed=%v but on dead node=%v", g, !onDead, onDead)
		}
	}
	// Drained means drained: a second drain is empty.
	if got := e.DrainDestroyedState(); len(got) != 0 {
		t.Fatalf("second drain returned %d cells", len(got))
	}
}
