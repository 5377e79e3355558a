package engine

import (
	"runtime"
	"testing"
	"time"

	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

func shardTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(lightConfig(), []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("a", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 2000)
	return e
}

// A half-dead cluster must not hold budget tokens no worker can use:
// crashed and retired nodes have no phase work, so the want clamps to
// live nodes — 4 nodes with 2 down and a budget of 8 holds exactly one
// extra token, leaving 7 for the run matrix.
func TestAcquireWorkersClampsToLiveNodes(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(-1)

	e := shardTestEngine(t)
	e.PinTickWorkers(4)
	e.SetNodeDown(1, true)
	e.SetNodeDown(2, true)

	w := e.acquireWorkers()
	free := parallel.AcquireTokens(8)
	parallel.ReleaseTokens(free)
	e.releaseWorkers(w, 0)
	if w != 2 || free != 7 {
		t.Fatalf("2 live nodes of 4, budget 8: got %d workers with %d tokens left free, want 2 and 7", w, free)
	}
}

// The automatic rule: ticks cheaper than forkJoinCost run inline
// and leave the budget alone; costlier ones want one worker per core
// up to the live nodes. What a real tick costs is the wall clock's
// business (a loaded box, -race and -cover all move it), so the rule is
// tested on costs it is handed.
func TestAutoWorkersFollowObservedTickCost(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(-1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	e := shardTestEngine(t)
	if err := e.Run(2 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	if st := e.TickStats(); st.Ticks != 20 {
		t.Fatalf("2 s of 100 ms ticks counted %d ticks, want 20", st.Ticks)
	}
	idle := func() {
		for i := 0; i < 16; i++ {
			e.releaseWorkers(1, 2*time.Microsecond)
		}
	}
	idle()
	if w := e.acquireWorkers(); w != 1 {
		t.Fatalf("microsecond ticks want %d workers, expected to stay inline", w)
	}

	for i := 0; i < 16; i++ {
		e.releaseWorkers(1, 2*forkJoinCost)
	}
	w := e.acquireWorkers()
	if w != 4 {
		t.Fatalf("ticks costing 2× the crossover want %d workers, expected 4 (GOMAXPROCS 4, 4 live nodes)", w)
	}
	e.releaseWorkers(w, 2*time.Microsecond)
	idle()
	if w := e.acquireWorkers(); w != 1 {
		t.Fatalf("idle ticks still want %d workers", w)
	}
}
