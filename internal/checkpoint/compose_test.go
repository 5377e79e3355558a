package checkpoint_test

// Composition tests: fault scenarios and checkpointing running against
// the same system. These live outside package checkpoint because they
// drive the full core recovery loop (core imports checkpoint).

import (
	"strconv"
	"testing"

	"saspar/internal/checkpoint"
	"saspar/internal/cluster"
	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/obs"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

func composeStream() engine.StreamDef {
	return engine.StreamDef{
		Name: "s", NumCols: 3, BytesPerTuple: 100,
		NewSource: func(task int) engine.Source {
			i := int64(task) * 1009
			return workload.RowAdapter(engine.GeneratorFunc(func(tu *engine.Tuple, ts vtime.Time) {
				i++
				tu.Cols[0] = i % 64
				tu.Cols[2] = 1
			}))
		},
	}
}

// composeSystem builds a core system with checkpointing armed and the
// given fault scenario scripted. Node 3 hosts only slots (sources sit
// on nodes 0 and 1), so crashing it always leaves a live source.
func composeSystem(t *testing.T, sc scenario.Script, ckptCfg checkpoint.Config) *core.System {
	t.Helper()
	engCfg := engine.DefaultConfig()
	engCfg.Nodes = 4
	engCfg.NumPartitions = 8
	engCfg.NumGroups = 32
	engCfg.SourceTasks = 2
	engCfg.ExactWindows = false
	engCfg.Tick = 100 * vtime.Millisecond

	coreCfg := core.DefaultConfig()
	coreCfg.Obs = obs.New()
	coreCfg.Script = sc
	coreCfg.Checkpoint = ckptCfg

	q := engine.QuerySpec{
		ID: "q", Kind: engine.OpAggregate,
		Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
		Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
		AggCol: 2,
	}
	sys, err := core.New(engCfg, []engine.StreamDef{composeStream()}, []engine.QuerySpec{q}, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine().SetStreamRate(0, 20000)
	return sys
}

// runUntilRecovered drives the system until the recovery loop settles
// (or the deadline passes).
func runUntilRecovered(t *testing.T, sys *core.System, d vtime.Duration) core.Report {
	t.Helper()
	deadline := sys.Engine().Clock().Add(d)
	for sys.Engine().Clock() < deadline {
		sys.Run(500 * vtime.Millisecond)
		if snap := sys.Snapshot(); snap.Recoveries > 0 && !snap.RecoveryPending {
			return snap
		}
	}
	t.Fatal("recovery never completed")
	return core.Report{}
}

func traceAttr(ev obs.Event, key string) string {
	for _, kv := range ev.Attrs {
		if kv.K == key {
			return kv.V
		}
	}
	return ""
}

// TestCrashAtCheckpointCompletionTick scripts the nastiest timing: the
// node dies at the exact virtual tick a checkpoint completes. The run
// loop harvests completions before the injector strikes, so that
// checkpoint must be stored, be chosen as the restore point, and the
// restore must succeed.
func TestCrashAtCheckpointCompletionTick(t *testing.T) {
	ck := checkpoint.Config{Interval: 2 * vtime.Second}

	// Pass 1 (no faults): learn when checkpoints complete.
	probe := composeSystem(t, nil, ck)
	probe.Run(12 * vtime.Second)
	var completions []vtime.Time
	var ids []int64
	for _, ev := range probe.Trace() {
		if ev.Kind == obs.EvCheckpointComplete {
			completions = append(completions, ev.Time)
			id, _ := strconv.ParseInt(traceAttr(ev, "checkpoint"), 10, 64)
			ids = append(ids, id)
		}
	}
	if len(completions) < 3 {
		t.Fatalf("probe run completed only %d checkpoints", len(completions))
	}
	strikeAt, strikeID := completions[2], ids[2]

	// Pass 2: same system, crash node 3 at exactly that tick.
	sys := composeSystem(t, scenario.Crash(3, strikeAt), ck)
	snap := runUntilRecovered(t, sys, 60*vtime.Second)
	if snap.Checkpoints < 3 {
		t.Fatalf("only %d checkpoints completed before recovery settled", snap.Checkpoints)
	}
	if snap.RestoredBytes <= 0 {
		t.Fatal("nothing restored from the checkpoint completed at the crash tick")
	}
	var restoredFrom int64 = -1
	for _, ev := range sys.Trace() {
		if ev.Kind == obs.EvCheckpointRestore {
			restoredFrom, _ = strconv.ParseInt(traceAttr(ev, "checkpoint"), 10, 64)
		}
	}
	// The checkpoint harvested in the same tick the crash struck is the
	// newest one completed at or before detection: the restore must use
	// it (or a later one, if detection lagged past another completion).
	if restoredFrom < strikeID {
		t.Fatalf("restored from checkpoint %d, want >= %d (the one completing at the crash tick)",
			restoredFrom, strikeID)
	}
}

// TestCourierNodeCrashFallsBack crashes the node hosting the snapshot
// store itself. The courier falls back to the first live node, so the
// restore still proceeds.
func TestCourierNodeCrashFallsBack(t *testing.T) {
	const storeNode = 3
	sys := composeSystem(t,
		scenario.Crash(storeNode, vtime.Time(7*vtime.Second)),
		checkpoint.Config{Interval: 2 * vtime.Second, StoreNode: storeNode})
	snap := runUntilRecovered(t, sys, 60*vtime.Second)
	if snap.Checkpoints == 0 {
		t.Fatal("no checkpoints before the crash")
	}
	if snap.RestoredBytes <= 0 {
		t.Fatal("restore did not proceed with the store's host down")
	}
	courier := sys.Checkpointer().CourierNode()
	if courier == cluster.NodeID(storeNode) {
		t.Fatalf("courier still the dead store host (node %d)", storeNode)
	}
	if sys.Engine().NodeDown(courier) {
		t.Fatalf("courier fallback picked dead node %d", courier)
	}
	restores := 0
	for _, ev := range sys.Trace() {
		if ev.Kind == obs.EvCheckpointRestore {
			restores++
		}
	}
	if restores == 0 {
		t.Fatal("no restore event emitted")
	}
}
