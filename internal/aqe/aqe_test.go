package aqe

import (
	"reflect"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

func testEngine(t *testing.T, microBatch bool) *engine.Engine {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Nodes = 2
	cfg.NumPartitions = 4
	cfg.NumGroups = 8
	cfg.SourceTasks = 2
	if microBatch {
		cfg.Profile = engine.Profile{Name: "prompt", MicroBatch: true, BatchInterval: vtime.Second}
	}
	streams := []engine.StreamDef{{
		Name: "s", NumCols: 2, BytesPerTuple: 64,
		NewSource: func(task int) engine.Source {
			i := int64(task * 100)
			return workload.RowAdapter(engine.GeneratorFunc(func(tu *engine.Tuple, ts vtime.Time) {
				i++
				tu.Cols[0] = i % 32
				tu.Cols[1] = 1
			}))
		},
	}}
	queries := []engine.QuerySpec{{
		ID: "q", Kind: engine.OpAggregate,
		Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
		Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
		AggCol: 1,
	}}
	e, err := engine.New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 2000)
	return e
}

func rotated(e *engine.Engine) *keyspace.Assignment {
	na := e.Assignment(0).Clone()
	for g := 0; g < na.NumGroups(); g++ {
		na.Set(keyspace.GroupID(g), (na.Partition(keyspace.GroupID(g))+1)%4)
	}
	return na
}

func drive(t *testing.T, e *engine.Engine, c *Controller, maxTicks int) {
	t.Helper()
	for i := 0; i < maxTicks && c.Busy(); i++ {
		e.Run(e.Config().Tick)
		c.Poll()
	}
}

func TestFullProtocolLifecycle(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	e.Run(2 * vtime.Second)

	started, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0)
	if err != nil || !started {
		t.Fatalf("Begin: started=%v err=%v", started, err)
	}
	if c.Phase() != Reconfiguring {
		t.Fatalf("phase = %v, want reconfiguring", c.Phase())
	}
	drive(t, e, c, 200)
	if c.Busy() {
		t.Fatalf("protocol stuck in %v", c.Phase())
	}
	if c.Applied() != 1 {
		t.Fatalf("applied = %d, want 1", c.Applied())
	}
	if e.Metrics() == nil {
		t.Fatal("no metrics")
	}
}

func TestBeginNoChangeStaysIdle(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	started, err := c.Begin(map[int]*keyspace.Assignment{0: e.Assignment(0).Clone()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if started || c.Busy() {
		t.Fatal("identical assignment started a reconfiguration")
	}
}

func TestBeginWhileBusyErrors(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	e.Run(vtime.Second)
	if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err == nil {
		t.Fatal("second Begin while busy did not error")
	}
}

func TestMicroBatchDeferredEpochResolution(t *testing.T) {
	e := testEngine(t, true)
	c := New(e)
	e.Run(2500 * vtime.Millisecond) // mid-batch
	started, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0)
	if err != nil || !started {
		t.Fatalf("Begin: %v %v", started, err)
	}
	// The epoch bump waits for the batch boundary; polling before it
	// must not crash or complete prematurely.
	c.Poll()
	if !c.Busy() {
		t.Fatal("completed before the batch boundary")
	}
	drive(t, e, c, 300)
	if c.Busy() {
		t.Fatalf("micro-batch protocol stuck in %v", c.Phase())
	}
	if c.Applied() != 1 {
		t.Fatalf("applied = %d, want 1", c.Applied())
	}
}

func TestBeginInjectionFailureLeavesControllerReusable(t *testing.T) {
	// Regression: Begin recorded epochBefore before calling
	// InjectReconfig, so a failed injection left a stale epoch behind.
	// A failed Begin must leave the controller Idle, untouched and
	// immediately reusable.
	e := testEngine(t, false)
	c := New(e)
	e.Run(vtime.Second)

	// Complete one reconfiguration so the engine epoch (2 after
	// finalize) differs from the controller's recorded epochBefore (0) —
	// otherwise the stale write would be invisible.
	if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err != nil {
		t.Fatal(err)
	}
	drive(t, e, c, 200)
	if c.Busy() || c.Applied() != 1 {
		t.Fatalf("setup reconfiguration did not complete: phase=%v applied=%d", c.Phase(), c.Applied())
	}
	epochBefore := c.epochBefore

	// A complete, correctly-sized assignment pointing at a partition the
	// engine does not have: Diff accepts it, InjectReconfig rejects it.
	bad := e.Assignment(0).Clone()
	for g := 0; g < bad.NumGroups(); g++ {
		bad.Set(keyspace.GroupID(g), keyspace.PartitionID(e.Config().NumPartitions))
	}
	started, err := c.Begin(map[int]*keyspace.Assignment{0: bad}, 0)
	if err == nil || started {
		t.Fatalf("out-of-range assignment accepted: started=%v err=%v", started, err)
	}
	if c.Phase() != Idle || c.Busy() {
		t.Fatalf("failed Begin left phase %v, want idle", c.Phase())
	}
	if c.epochBefore != epochBefore {
		t.Fatalf("failed Begin leaked epochBefore %d (was %d)", c.epochBefore, epochBefore)
	}

	// The controller must still run a full protocol round afterwards.
	if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err != nil {
		t.Fatalf("Begin after failed injection: %v", err)
	}
	drive(t, e, c, 200)
	if c.Busy() || c.Applied() != 2 {
		t.Fatalf("controller not reusable after failed Begin: phase=%v applied=%d", c.Phase(), c.Applied())
	}
}

func TestSequentialReconfigurations(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	e.Run(vtime.Second)
	for round := 0; round < 3; round++ {
		if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		drive(t, e, c, 200)
		if c.Busy() {
			t.Fatalf("round %d stuck", round)
		}
	}
	if c.Applied() != 3 {
		t.Fatalf("applied = %d, want 3", c.Applied())
	}
}

// Poll tells its caller what it did: a held Begin reports nothing until
// readyAt, then each transition exactly once, in protocol order.
func TestPollReportsEachTransition(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	e.Run(vtime.Second)
	readyAt := e.Clock().Add(3 * e.Config().Tick)
	started, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, readyAt)
	if err != nil || !started || c.Phase() != Staging {
		t.Fatalf("held Begin: started=%v err=%v phase=%v", started, err, c.Phase())
	}
	var seen []Event
	for i := 0; i < 200 && c.Busy(); i++ {
		e.Run(e.Config().Tick)
		ev := c.Poll()
		if e.Clock() < readyAt && (ev != None || c.Phase() != Staging) {
			t.Fatalf("at %v, before readyAt %v: event %v, phase %v", e.Clock(), readyAt, ev, c.Phase())
		}
		if ev != None {
			seen = append(seen, ev)
		}
	}
	if want := []Event{Injected, Aligned, Done}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("events %v, want %v", seen, want)
	}
	if c.Applied() != 1 || c.Poll() != None {
		t.Fatalf("after Done: applied=%d", c.Applied())
	}
}

// A held plan that cannot be injected any more is dropped: the caller
// is told, and the controller is idle and reusable.
func TestHeldPlanGoneStaleIsDropped(t *testing.T) {
	e := testEngine(t, false)
	c := New(e)
	e.Run(vtime.Second)
	bad := e.Assignment(0).Clone()
	for g := 0; g < bad.NumGroups(); g++ {
		bad.Set(keyspace.GroupID(g), keyspace.PartitionID(e.Config().NumPartitions))
	}
	if started, err := c.Begin(map[int]*keyspace.Assignment{0: bad}, e.Clock().Add(e.Config().Tick)); err != nil || !started {
		t.Fatalf("held Begin: started=%v err=%v", started, err)
	}
	e.Run(e.Config().Tick)
	if ev := c.Poll(); ev != Dropped || c.Busy() || c.Applied() != 0 {
		t.Fatalf("stale held plan: event %v, phase %v, applied %d; want Dropped, idle, 0", ev, c.Phase(), c.Applied())
	}
	if _, err := c.Begin(map[int]*keyspace.Assignment{0: rotated(e)}, 0); err != nil {
		t.Fatalf("Begin after a dropped stage: %v", err)
	}
	drive(t, e, c, 200)
	if c.Busy() || c.Applied() != 1 {
		t.Fatalf("controller not reusable after a dropped stage: phase=%v applied=%d", c.Phase(), c.Applied())
	}
}
