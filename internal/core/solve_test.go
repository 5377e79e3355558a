package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"saspar/internal/checkpoint"
	"saspar/internal/cluster"
	"saspar/internal/engine"
	"saspar/internal/keyspace"
	"saspar/internal/obs"
	"saspar/internal/optimizer"
	"saspar/internal/scenario"
	"saspar/internal/vtime"
)

// skewFeed is a BlockFeed that never runs dry: every tick claims one
// block of skewedStream's rows, as if a producer kept one queued.
type skewFeed struct {
	i      int64
	handed bool
	blk    engine.TupleBlock
}

const skewFeedRows = 2000

func (f *skewFeed) Poll() *engine.TupleBlock {
	if f.handed {
		f.handed = false
		return nil
	}
	f.handed = true
	f.blk.Resize(skewFeedRows, 3)
	for r := 0; r < skewFeedRows; r++ {
		f.i++
		k := 4 + f.i%60
		if f.i%10 < 7 {
			k = f.i % 4
		}
		f.blk.Col[0][r], f.blk.Col[1][r], f.blk.Col[2][r] = k, k, 1
	}
	return &f.blk
}

func (f *skewFeed) Release(*engine.TupleBlock) {}

// parkedSolver is the solve seam of these tests: the first solve waits
// for release, so the test decides what happens while it is in flight;
// later solves (an evacuation the loop joins) run straight through.
type parkedSolver struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func newParkedSolver() *parkedSolver {
	return &parkedSolver{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p *parkedSolver) solve(req *optimizer.Request, opt optimizer.Options) (*optimizer.Result, error) {
	if p.calls.Add(1) == 1 {
		p.entered <- struct{}{}
		<-p.release
	}
	return optimizer.Optimize(req, opt)
}

// solveCfg makes the first round's plan worth installing (a stationary
// skew and a long horizon, as in TestSkewTriggersLiveReconfiguration)
// and bounds the solver by work.
func solveCfg() Config {
	cfg := fastCfg()
	cfg.MinImprovement = 0.001
	cfg.PlanHorizon = 100
	cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
	cfg.Obs = obs.New()
	return cfg
}

// newFedSystem builds a system whose every source task is fed, with
// the parked solver installed.
func newFedSystem(t *testing.T, engCfg engine.Config, queries []engine.QuerySpec, cfg Config) (*System, *parkedSolver) {
	t.Helper()
	s, err := New(engCfg, []engine.StreamDef{skewedStream()}, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < engCfg.SourceTasks; task++ {
		if err := s.Engine().SetBlockFeed(0, task, &skewFeed{i: int64(task) * 7919}); err != nil {
			t.Fatal(err)
		}
	}
	p := newParkedSolver()
	s.solve = p.solve
	return s, p
}

// tick runs one engine tick and fails the test, not the whole binary's
// timeout, when Run does not come back.
func tick(t *testing.T, s *System) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Run(s.Engine().Config().Tick) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run(tick) did not return: the loop is waiting for the solver")
	}
}

// tickUntil ticks until ok, at most limit times.
func tickUntil(t *testing.T, s *System, limit int, what string, ok func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if ok() {
			return
		}
		tick(t, s)
	}
	if !ok() {
		t.Fatalf("after %d ticks: %s", limit, what)
	}
}

func solveInFlight(s *System) bool {
	inFlight, _, _ := s.SolveState()
	return inFlight
}

// landSolve releases the parked solver and ticks until the loop has
// taken its result. The solver delivers on its own goroutine, so it
// first waits, without ticking, for the result to reach the job's
// one-slot channel and puts it back: ticking meanwhile would let a slow
// solve span enough virtual time for the loop to drop it and then start
// and install a fresh plan.
func landSolve(t *testing.T, s *System, p *parkedSolver) {
	t.Helper()
	close(p.release)
	select {
	case out := <-s.inFlight.done:
		s.inFlight.done <- out
	case <-time.After(10 * time.Second):
		t.Fatal("released solve never came back to the loop")
	}
	tick(t, s)
	if solveInFlight(s) {
		t.Fatal("the tick after the solve delivered did not take its result")
	}
}

func traceHas(s *System, kind obs.EventKind, attr string) bool {
	for _, ev := range s.Trace() {
		if line := ev.String(); strings.Contains(line, string(kind)) && strings.Contains(line, attr) {
			return true
		}
	}
	return false
}

func TestFedLoopTicksThroughSolve(t *testing.T) {
	s, p := newFedSystem(t, testEngineConfig(), sameKeyQueries(2), solveCfg())
	tickUntil(t, s, 100, "no solve started", func() bool { return solveInFlight(s) })
	<-p.entered

	// A whole trigger interval and more goes by with the solver parked:
	// every tick returns, rows keep being claimed, and the trigger that
	// falls due meanwhile starts nothing.
	eng := s.Engine()
	interval := int(fastCfg().TriggerInterval / eng.Config().Tick)
	for i := 0; i < interval+5; i++ {
		before := eng.GeneratedTuples()
		tick(t, s)
		if eng.GeneratedTuples() <= before {
			t.Fatalf("tick %d with the solver parked claimed no rows", i)
		}
	}
	snap := s.Snapshot()
	if n := p.calls.Load(); n != 1 || snap.Triggers != 1 {
		t.Fatalf("with a solve in flight: %d solves started, %d triggers counted; want 1 and 1", n, snap.Triggers)
	}
	if !solveInFlight(s) || snap.Optimizations != 0 || snap.Applied != 0 || s.Controller().Busy() {
		t.Fatalf("a plan landed while the solver was parked: %+v", snap)
	}

	landSolve(t, s, p)
	snap = s.Snapshot()
	_, stale, lastMs := s.SolveState()
	if snap.Optimizations != 1 || stale != 0 || lastMs <= 0 {
		t.Fatalf("after release: %d rounds, %d stale, last solve %.3f ms", snap.Optimizations, stale, lastMs)
	}
	if !traceHas(s, obs.EvPlanAccepted, "moved_groups") || !(s.Controller().Busy() || snap.Applied == 1) {
		t.Fatalf("released plan was not handed to AQE: applied=%d skipped=%d phase=%s",
			snap.Applied, snap.SkippedPlans, snap.AQEPhase)
	}
	tickUntil(t, s, 100, "reconfiguration never completed", func() bool { return s.Snapshot().Applied == 1 })
}

func TestStaleResultsAreDropped(t *testing.T) {
	elasticCfg := func() Config {
		cfg := solveCfg()
		cfg.Elastic = elasticCoreConfig().Elastic
		cfg.Elastic.Policy.HighWater = 1e9 // the test joins by hand
		return cfg
	}
	faultCfg := func() Config {
		cfg := solveCfg()
		// The first solve starts at 2 s and is parked; the crash lands
		// behind it.
		cfg.Script = scenario.Crash(3, vtime.Time(2500*vtime.Millisecond))
		return cfg
	}
	for _, tc := range []struct {
		name    string
		engCfg  engine.Config
		cfg     Config
		queries int
		// disturb changes the system while the solve is parked; after,
		// when set, checks it once the stale result has been dropped.
		disturb, after func(t *testing.T, s *System)
	}{
		// The crash is detected, evacuated and recovered from while the
		// solver is parked, so nothing but the plan itself — solved when
		// node 3 was healthy — says the result is late; it must not put
		// anything back on the dead node.
		{"fault", faultEngineConfig(), faultCfg(), 2, func(t *testing.T, s *System) {
			tickUntil(t, s, 200, "evacuation never completed", func() bool { return s.Snapshot().Recoveries > 0 })
		}, func(t *testing.T, s *System) {
			for i := 0; i < 20; i++ {
				tick(t, s)
			}
			e := s.Engine()
			for qi := 0; qi < e.NumQueries(); qi++ {
				a := e.Assignment(qi)
				for g := 0; g < a.NumGroups(); g++ {
					if part := a.Partition(keyspace.GroupID(g)); e.PartitionNode(int(part)) == cluster.NodeID(3) {
						t.Fatalf("query %d group %d on dead node's partition %d", qi, g, part)
					}
				}
			}
		}},
		{"add-query", testEngineConfig(), solveCfg(), 2, func(t *testing.T, s *System) {
			if _, err := s.AddQuery(sameKeyQueries(1)[0]); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"remove-query", testEngineConfig(), solveCfg(), 3, func(t *testing.T, s *System) {
			if err := s.RemoveQuery(2); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"elastic-join", testEngineConfig(), elasticCfg(), 2, func(t *testing.T, s *System) {
			before := s.Engine().Config().NumPartitions
			s.elasticJoin(1)
			if s.Engine().Config().NumPartitions == before {
				t.Fatal("join admitted no partitions")
			}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, p := newFedSystem(t, tc.engCfg, sameKeyQueries(tc.queries), tc.cfg)
			tickUntil(t, s, 100, "no solve started", func() bool { return solveInFlight(s) })
			<-p.entered
			tc.disturb(t, s)
			applied := s.Snapshot().Applied
			landSolve(t, s, p)

			_, stale, _ := s.SolveState()
			if stale != 1 {
				t.Fatalf("%d stale plans counted, want 1", stale)
			}
			if !traceHas(s, obs.EvPlanSkipped, "reason=stale") {
				t.Fatal("no plan_skipped event with reason stale in the trace")
			}
			if traceHas(s, obs.EvPlanAccepted, "moved_groups") {
				t.Fatal("the stale plan was accepted")
			}
			var prom strings.Builder
			if err := tc.cfg.Obs.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(prom.String(), `saspar_plan_decisions_total{decision="stale"} 1`) {
				t.Fatal("stale decision counter missing from the registry")
			}
			// Whatever was applied meanwhile was the disturbance's own
			// plan (an evacuation, a rebalance), never the parked one.
			if snap := s.Snapshot(); snap.SkippedPlans != 0 || snap.Applied < applied {
				t.Fatalf("stale result reached the gate: %+v", snap)
			}
			if tc.after != nil {
				tc.after(t, s)
			}
		})
	}
}

// Without a feed the virtual clock runs free and trigger waits for the
// solver: Run cannot return while the solve is parked, and when it does
// return the round is complete.
func TestUnfedTriggerJoinsSolver(t *testing.T) {
	s, err := New(testEngineConfig(), []engine.StreamDef{skewedStream()}, sameKeyQueries(2), solveCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetStreamRate(0, 20000)
	p := newParkedSolver()
	s.solve = p.solve

	done := make(chan error, 1)
	go func() { done <- s.Run(fastCfg().TriggerInterval + 100*vtime.Millisecond) }()
	<-p.entered
	select {
	case <-done:
		t.Fatal("Run returned with the solver still parked")
	case <-time.After(20 * time.Millisecond):
	}
	close(p.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the solver was released")
	}
	snap := s.Snapshot()
	if solveInFlight(s) || snap.Triggers != 1 || snap.Optimizations != 1 {
		t.Fatalf("Run returned before the round finished: in flight %v, %d triggers, %d rounds",
			solveInFlight(s), snap.Triggers, snap.Optimizations)
	}
	if snap.Applied+snap.SkippedPlans+boolToInt(s.Controller().Busy()) != 1 {
		t.Fatalf("joined round reached no decision: %+v", snap)
	}
}

// With the solver failing, a mandatory movement — the evacuation after
// a crash, the evacuation a drain needs — still happens, as the
// last-resort spread: only key groups on the masked nodes move, queries
// that shared an assignment object still share one, the episode
// completes, and nothing is left staged.
func TestSolverFailureFallsBackToSpread(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engCfg engine.Config
		cfg    func() Config
		// setup runs the system up to the point where the solver goes down;
		// finish runs it through the movement and checks it completed.
		setup, finish func(t *testing.T, s *System)
		masked        []cluster.NodeID
		// sharing: the setup leaves the queries on one assignment object.
		sharing bool
	}{
		{"crash", faultEngineConfig(), func() Config {
			// solveCfg's first round installs a plan at 2 s, so the queries
			// share one assignment object by the time node 3 dies.
			cfg := solveCfg()
			cfg.Script = scenario.Crash(3, vtime.Time(5*vtime.Second))
			cfg.Checkpoint = checkpoint.Config{Interval: vtime.Second}
			return cfg
		}, func(t *testing.T, s *System) {
			s.Engine().SetStreamRate(0, 20000)
			if err := s.Run(4 * vtime.Second); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *System) {
			if err := s.Run(8 * vtime.Second); err != nil {
				t.Fatal(err)
			}
			if snap := s.Snapshot(); snap.Recoveries != 1 || snap.RecoveryPending || snap.Applied == 0 {
				t.Fatalf("recovery did not complete through AQE: %+v", snap)
			}
		}, []cluster.NodeID{3}, true},
		{"drain", elasticEngineConfig(), func() Config {
			cfg := elasticCoreConfig()
			cfg.Opt = optimizer.Options{DeterministicBudget: true, MaxNodes: 20000}
			cfg.Checkpoint = checkpoint.Config{Interval: 4 * vtime.Second}
			return cfg
		}, func(t *testing.T, s *System) {
			s.Engine().SetStreamRate(0, 60000)
			if err := s.Run(12 * vtime.Second); err != nil {
				t.Fatal(err)
			}
			if s.Snapshot().ElasticJoins == 0 {
				t.Fatal("flash crowd joined no node; nothing to drain")
			}
			// The rebalance onto the joined node aligns only once the
			// flash crowd's backlog has drained, tens of seconds later.
			s.Engine().SetStreamRate(0, 200)
			tickUntil(t, s, 600, "post-join rebalance never completed", func() bool { return !s.Controller().Busy() })
			if snap := s.Snapshot(); snap.ElasticDrains != 0 || snap.ElasticDraining {
				t.Fatalf("a drain began before the solver went down: %+v", snap)
			}
		}, func(t *testing.T, s *System) {
			if err := s.Run(40 * vtime.Second); err != nil {
				t.Fatal(err)
			}
			if snap := s.Snapshot(); snap.ElasticDrains != snap.ElasticJoins || snap.ElasticDraining || snap.LiveNodes != 4 || snap.LostBytes != 0 {
				t.Fatalf("drains did not complete cleanly: %+v", snap)
			}
		}, []cluster.NodeID{4, 5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.engCfg, []engine.StreamDef{skewedStream()}, sameKeyQueries(4), tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			tc.setup(t, s)
			if s.Controller().Busy() {
				t.Fatal("a reconfiguration is still in flight; the before-picture would be of a plan on its way out")
			}
			var down solverDown
			s.solve = down.solve
			rounds := s.Snapshot().Optimizations
			before, shared := partitionsOf(s.eng)
			if tc.sharing && !(shared[1] && shared[2]) {
				t.Fatal("same-key queries do not share an assignment object; the sharing check is vacuous")
			}
			tc.finish(t, s)
			if down.calls == 0 || s.Snapshot().Optimizations != rounds {
				t.Fatalf("solver consulted %d times, rounds %d -> %d; want it asked and nothing counted",
					down.calls, rounds, s.Snapshot().Optimizations)
			}
			assertOnlyMaskedMoved(t, s.eng, before, shared, tc.masked...)
			if s.Controller().Busy() || s.ep.cells > 0 || s.eng.StagedCells() != 0 {
				t.Fatalf("episode left open: phase %v, stage armed %v, %d staged cells",
					s.Controller().Phase(), s.ep.cells > 0, s.eng.StagedCells())
			}
		})
	}
}
