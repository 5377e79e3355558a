package core

import (
	"errors"
	"testing"

	"saspar/internal/aqe"
	"saspar/internal/checkpoint"
	"saspar/internal/cluster"
	"saspar/internal/engine"
	"saspar/internal/enginetest"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// The mid-stage crash matrix: a node dies while a staged migration is
// pre-shipping (or right after it completed), for every role a node
// can play in the protocol. Each case must resolve without wedging —
// the stage either completes exactly-once or is voided and the
// episode falls back — and no destroyed state cell may be left
// unaccounted (the engine's destroyed-state drain must be empty once
// recovery and restore have run). Every case is replayed over
// workerGrid and its fingerprint pinned in golden_fingerprints.json:
// these are the runs that void a stage, and no other digest covers one.

// newStagedSystem builds a counting-mode system with checkpointing on
// node 0 and runs it long enough to hold a full checkpoint chain, then
// drains any startup reconfiguration so the controller is idle.
func newStagedSystem(t *testing.T, pinned int) *System {
	t.Helper()
	cfg := fastCfg()
	cfg.TriggerInterval = vtime.Minute // manual control: no routine plans
	cfg.Checkpoint = checkpoint.Config{Interval: vtime.Second, StoreNode: 0}
	cfg.Obs = obs.New()
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().PinTickWorkers(pinned)
	s.Engine().SetStreamRate(0, 50000)
	if err := s.Run(3 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Checkpoints == 0 {
		t.Fatal("no checkpoint completed; staging has nothing to ship")
	}
	if s.Controller().Busy() {
		t.Fatal("controller busy after warmup")
	}
	return s
}

// movePlan clones the running assignments with every key group on
// srcNode's partitions moved onto dstNode's, round-robin. Queries that
// share an assignment object share the clone.
func movePlan(t *testing.T, s *System, srcNode, dstNode cluster.NodeID) map[int]*keyspace.Assignment {
	t.Helper()
	var dst []keyspace.PartitionID
	for p := 0; p < s.eng.Config().NumPartitions; p++ {
		if s.eng.PartitionNode(p) == dstNode {
			dst = append(dst, keyspace.PartitionID(p))
		}
	}
	if len(dst) == 0 {
		t.Fatalf("node %d hosts no partitions", dstNode)
	}
	byOld := map[*keyspace.Assignment]*keyspace.Assignment{}
	newAssign := map[int]*keyspace.Assignment{}
	i := 0
	for qi := 0; qi < s.eng.NumQueries(); qi++ {
		old := s.eng.Assignment(qi)
		na, ok := byOld[old]
		if !ok {
			na = old.Clone()
			for g := 0; g < na.NumGroups(); g++ {
				gid := keyspace.GroupID(g)
				if s.eng.PartitionNode(int(na.Partition(gid))) == srcNode {
					na.Set(gid, dst[i%len(dst)])
					i++
				}
			}
			byOld[old] = na
		}
		newAssign[qi] = na
	}
	return newAssign
}

// stagePlan begins a staged migration moving every key group currently
// on srcNode's partitions onto dstNode's, and asserts the controller
// actually entered the Staging phase with cells registered.
func stagePlan(t *testing.T, s *System, srcNode, dstNode cluster.NodeID) {
	t.Helper()
	started, err := s.begin(movePlan(t, s, srcNode, dstNode))
	if err != nil || !started {
		t.Fatalf("begin: started=%v err=%v", started, err)
	}
	if got := s.Controller().Phase(); got != aqe.Staging {
		t.Fatalf("controller phase = %v after staged begin, want Staging", got)
	}
	if s.eng.StagedCells() == 0 {
		t.Fatal("staged begin registered no cells")
	}
	if s.ep.cells == 0 {
		t.Fatal("migration bookkeeping not armed")
	}
}

// stagePlanFallback begins a migration expected to take the
// pause-and-transfer gate (markers inject immediately, no Staging
// phase).
func stagePlanFallback(t *testing.T, s *System, srcNode cluster.NodeID, dstNode cluster.NodeID) {
	t.Helper()
	started, err := s.begin(movePlan(t, s, srcNode, dstNode))
	if err != nil || !started {
		t.Fatalf("fallback begin: started=%v err=%v", started, err)
	}
	if got := s.Controller().Phase(); got == aqe.Staging {
		t.Fatal("reconfiguration entered Staging despite a dead store")
	}
}

// crashNow fail-stops a node and runs the health poll exactly as the
// control loop would on its next tick.
func crashNow(s *System, n cluster.NodeID) {
	s.eng.SetNodeDown(n, true)
	s.pollHealth()
}

// settle runs the system until recovery finishes and the controller is
// idle (bounded), then asserts the staged registry is spent and every
// destroyed state cell was drained into the restore path.
func settle(t *testing.T, s *System) Report {
	t.Helper()
	for i := 0; i < 300; i++ {
		if err := s.Run(100 * vtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if !s.Controller().Busy() && !s.recoveryPending && s.ep.cells == 0 {
			break
		}
	}
	rep := s.Snapshot()
	if s.Controller().Busy() {
		t.Fatalf("controller wedged in phase %v", s.Controller().Phase())
	}
	if s.ep.cells > 0 {
		t.Fatal("staged-migration bookkeeping never resolved")
	}
	if n := s.eng.StagedCells(); n != 0 {
		t.Fatalf("%d staged cells leaked past the episode", n)
	}
	if cells := s.eng.DrainDestroyedState(); len(cells) != 0 {
		t.Fatalf("%d destroyed state cells left unaccounted: %v", len(cells), cells)
	}
	return rep
}

// solverDown is the solve seam of the tests that force the last-resort
// spread: every solve fails, as a degenerate request would make it.
type solverDown struct{ calls int }

func (d *solverDown) solve(*optimizer.Request, optimizer.Options) (*optimizer.Result, error) {
	d.calls++
	return nil, errors.New("solver down")
}

// partitionsOf copies every query's group→partition map, and reports
// which queries share an assignment object with query 0.
func partitionsOf(e *engine.Engine) (parts [][]keyspace.PartitionID, sharesWith0 []bool) {
	for qi := 0; qi < e.NumQueries(); qi++ {
		a := e.Assignment(qi)
		row := make([]keyspace.PartitionID, a.NumGroups())
		for g := range row {
			row[g] = a.Partition(keyspace.GroupID(g))
		}
		parts = append(parts, row)
		sharesWith0 = append(sharesWith0, a == e.Assignment(0))
	}
	return parts, sharesWith0
}

// assertOnlyMaskedMoved checks what the last-resort spread promises
// against a partitionsOf taken before it ran: a key group moved if and
// only if it sat on one of the masked nodes, it moved to a node that is
// not masked, and queries that shared an assignment object still do.
func assertOnlyMaskedMoved(t *testing.T, e *engine.Engine, before [][]keyspace.PartitionID, shared []bool, masked ...cluster.NodeID) {
	t.Helper()
	isMasked := func(p keyspace.PartitionID) bool {
		for _, n := range masked {
			if e.PartitionNode(int(p)) == n {
				return true
			}
		}
		return false
	}
	after, sharedAfter := partitionsOf(e)
	moved := 0
	for qi := range before {
		if shared[qi] != sharedAfter[qi] {
			t.Fatalf("query %d shared query 0's assignment object: before %v, after %v", qi, shared[qi], sharedAfter[qi])
		}
		for g, was := range before[qi] {
			now := after[qi][g]
			switch {
			case isMasked(now):
				t.Fatalf("query %d group %d left on masked partition %d", qi, g, now)
			case isMasked(was):
				moved++
			case now != was:
				t.Fatalf("query %d group %d moved %d -> %d though %d was not masked", qi, g, was, now, was)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key group sat on a masked partition; the check is vacuous")
	}
}

type crashCase struct {
	name string
	// crash picks the victim for the scripted fail-stop given the
	// migration's source and destination nodes.
	crash func(src, dst cluster.NodeID) cluster.NodeID
	// afterStage completes the migration first, then crashes.
	afterStage bool
	// solverDown fails every solve, so the evacuation after the crash is
	// the last-resort spread.
	solverDown bool
}

func TestMidStageCrashMatrix(t *testing.T) {
	cases := []crashCase{
		{name: "source_crash", crash: func(src, dst cluster.NodeID) cluster.NodeID { return src }},
		{name: "destination_crash", crash: func(src, dst cluster.NodeID) cluster.NodeID { return dst }},
		{name: "store_crash", crash: func(src, dst cluster.NodeID) cluster.NodeID { return 0 }},
		{name: "stage_complete_then_crash", afterStage: true,
			crash: func(src, dst cluster.NodeID) cluster.NodeID { return src }},
		{name: "solver_down_spread", solverDown: true,
			crash: func(src, dst cluster.NodeID) cluster.NodeID { return src }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := runCrashCase(t, tc, workerGrid[0])
			assertGridMatches(t, base, func(g enginetest.WorkerCell) []byte {
				return runCrashCase(t, tc, g)
			})
		})
	}
}

// runCrashCase plays one case of the matrix under one worker cell and
// returns the run's fingerprint, checked against its golden digest.
func runCrashCase(t *testing.T, tc crashCase, cell enginetest.WorkerCell) []byte {
	t.Helper()
	parallel.SetBudget(cell.Budget)
	defer parallel.SetBudget(-1)
	s := newStagedSystem(t, cell.Pinned)
	// Node 0 hosts the snapshot store and the source tasks; stage a
	// migration between two other nodes so each crash targets one
	// protocol role at a time.
	const src, dst = cluster.NodeID(1), cluster.NodeID(2)
	if s.eng.GroupsOnNode(src) == 0 {
		t.Fatalf("node %d owns no groups; pick a different source", src)
	}
	var down solverDown
	if tc.solverDown {
		s.solve = down.solve
	}
	before, shared := partitionsOf(s.eng)
	stagePlan(t, s, src, dst)

	if tc.afterStage {
		// Let the staged reconfiguration run to completion first.
		for i := 0; i < 100 && s.ep.cells > 0; i++ {
			if err := s.Run(100 * vtime.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Snapshot().MigrationsStaged; got != 1 {
			t.Fatalf("staged migration did not complete before the crash: staged=%d", got)
		}
		if n := s.eng.StagedCells(); n != 0 {
			t.Fatalf("stage completed but %d cells still registered", n)
		}
	}
	crashNow(s, tc.crash(src, dst))
	if !tc.afterStage {
		// The fault must void the in-flight stage synchronously: the
		// snapshot may describe state on the dead node.
		if s.ep.cells > 0 || s.eng.StagedCells() != 0 {
			t.Fatal("crash mid-stage left the stage armed")
		}
		if s.Controller().Phase() != aqe.Idle {
			t.Fatalf("controller phase = %v after mid-stage crash, want Idle", s.Controller().Phase())
		}
	}
	rep := settle(t, s)
	if rep.Recoveries == 0 {
		t.Fatal("crash never recovered")
	}
	if tc.afterStage {
		if rep.MigrationsStaged == 0 {
			t.Fatal("completed stage lost from the books")
		}
	} else if rep.MigrationFallbacks == 0 {
		t.Fatal("voided stage recorded no fallback")
	}
	if tc.solverDown {
		// The voided stage moved nothing, so the running plan is still the
		// one from before it: what changed since is the spread alone.
		if down.calls == 0 || rep.Optimizations != 0 {
			t.Fatalf("solver consulted %d times, %d rounds counted; want > 0 and 0", down.calls, rep.Optimizations)
		}
		assertOnlyMaskedMoved(t, s.eng, before, shared, src)
	}
	if tc.name == "store_crash" {
		// With the snapshot store dead, every later reconfiguration
		// must take the pause-and-transfer gate, not wedge on the
		// staged one: re-plan the same movement back off dst.
		if s.eng.GroupsOnNode(dst) == 0 {
			t.Skip("recovery emptied the destination; nothing left to re-plan")
		}
		stageBefore := s.Snapshot().MigrationsStaged
		fallbacks := s.Snapshot().MigrationFallbacks
		stagePlanFallback(t, s, dst, 3)
		if got := s.Snapshot().MigrationFallbacks; got <= fallbacks {
			t.Fatalf("store-down reconfiguration not counted as fallback: %d -> %d", fallbacks, got)
		}
		settle(t, s)
		if got := s.Snapshot().MigrationsStaged; got != stageBefore {
			t.Fatalf("reconfiguration staged against a dead store: %d -> %d", stageBefore, got)
		}
	}
	fp := fingerprint(t, s)
	checkGolden(t, "crash-matrix/"+tc.name, fp)
	return fp
}

// A plan that cannot be injected any more when its staged transfers
// land — here its destination was retired meanwhile — is dropped by the
// controller, and the episode is voided as stale: nothing moved, the
// staged registry and the pin are released, one fallback is counted.
func TestStaleStagedPlanIsVoided(t *testing.T) {
	s := newStagedSystem(t, 1)
	// The warm-up ends as a checkpoint barrier goes out; membership
	// changes wait for it.
	for i := 0; i < 10 && !s.eng.ElasticQuiescent(); i++ {
		tick(t, s)
	}
	joined, _, err := s.eng.AddNode(0)
	if err != nil {
		t.Fatal(err)
	}
	stagePlan(t, s, 1, joined)
	if err := s.eng.RetireNode(joined); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	rep := settle(t, s)
	if rep.Applied != before.Applied || rep.MigrationsStaged != before.MigrationsStaged {
		t.Fatalf("stale plan was applied: %+v", rep)
	}
	if rep.MigrationFallbacks != before.MigrationFallbacks+1 || !traceHas(s, obs.EvMigrationFallback, "reason=stale") {
		t.Fatalf("stale stage not counted as a fallback: %d -> %d", before.MigrationFallbacks, rep.MigrationFallbacks)
	}
	if s.eng.GroupsOnNode(joined) != 0 {
		t.Fatal("key groups landed on the retired node")
	}
}
