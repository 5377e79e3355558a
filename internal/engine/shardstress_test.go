package engine

import (
	"fmt"
	"testing"

	"saspar/internal/enginetest"
	"saspar/internal/keyspace"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
)

// TestShardedChurnStress drives the sharded step through every
// concurrent mutation source at once, under every cell of WorkerGrid
// (the pinned cells with budget grant real worker goroutines, so the
// parallel phases run parallel even on a 1-core CI host and on ticks
// this small): many ticks, live re-partitionings, a node crash and
// revival mid-churn, and checkpoint barrier churn interleaved with the
// reconfiguration markers. The
// assertions are liveness only — epochs drain, checkpoints complete,
// results keep flowing — because byte-level correctness is enforced by
// the determinism suite in internal/core; this test's job is giving
// the race detector coverage of the slot/router phases (scripts/ci.sh
// runs this package under -race).
func TestShardedChurnStress(t *testing.T) {
	for _, cell := range enginetest.WorkerGrid() {
		t.Run(fmt.Sprintf("pinned%d-budget%d", cell.Pinned, cell.Budget), func(t *testing.T) {
			churnStress(t, cell)
		})
	}
}

func churnStress(t *testing.T, cell enginetest.WorkerCell) {
	parallel.SetBudget(cell.Budget)
	defer parallel.SetBudget(-1)

	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)},
		[]QuerySpec{aggQuery("a", 0), aggQuery("b", 1)})
	if err != nil {
		t.Fatal(err)
	}
	e.PinTickWorkers(cell.Pinned)
	e.SetStreamRate(0, 2000)

	ckptID := int64(1)
	completed := 0
	for round := 0; round < 6; round++ {
		if err := e.Run(500 * vtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Checkpoint barrier churn: start a new barrier whenever the
		// previous one finished aligning.
		if err := e.BeginCheckpoint(ckptID); err == nil {
			ckptID++
		}
		// A crash strikes mid-churn and the node comes back two rounds
		// later, so reconfigurations and barriers cross a down node.
		switch round {
		case 2:
			e.SetNodeDown(1, true)
		case 4:
			e.SetNodeDown(1, false)
		}
		// Live re-partitioning: rotate half the groups of query 0.
		if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err == nil {
			epoch := e.Epoch()
			for i := 0; i < 400 && !e.ReconfigComplete(epoch); i++ {
				if err := e.Run(cfg.Tick); err != nil {
					t.Fatal(err)
				}
			}
			if !e.ReconfigComplete(epoch) {
				t.Fatalf("round %d: reconfiguration epoch %d never drained", round, epoch)
			}
			e.InjectFinalize()
		}
		if _, ok := e.CompleteCheckpoint(); ok {
			completed++
		}
	}
	if err := e.Run(2 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	if completed == 0 {
		t.Fatal("no checkpoint barrier completed during the churn")
	}
	if len(e.Results(0)) == 0 {
		t.Fatal("churned engine emitted no results")
	}
	if st := e.TickStats(); cell.Pinned > 1 && cell.Budget > 0 && st.ParallelTicks == 0 {
		t.Fatalf("pinned %d workers with budget %d ran no parallel tick: %+v", cell.Pinned, cell.Budget, st)
	}
}
