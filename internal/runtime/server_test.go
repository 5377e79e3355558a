package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// serveWorkload is a tiny one-stream, one-query workload whose source
// doubles as the blast generator.
func serveWorkload() *workload.Workload {
	return &workload.Workload{
		Name: "serve-test",
		Streams: []engine.StreamDef{{
			Name: "events", NumCols: 3, BytesPerTuple: 88,
			NewSource: func(task int) engine.Source {
				return &eqSrc{i: int64(task) * 7919}
			},
		}},
		Queries: []engine.QuerySpec{{
			ID: "sum-by-key", Kind: engine.OpAggregate,
			Inputs: []engine.Input{{Stream: 0, Key: engine.KeySpec{0}}},
			Window: engine.WindowSpec{Range: vtime.Second, Slide: vtime.Second},
			AggCol: 2,
		}},
		Rates: []float64{1e6},
	}
}

// eqSrc is a deterministic block-native source (hash-skewed keys, no
// RNG).
type eqSrc struct{ i int64 }

func (g *eqSrc) NextBlock(b *engine.TupleBlock, from, to int) {
	c0, c1, c2 := b.Col[0], b.Col[1], b.Col[2]
	i := g.i
	for r := from; r < to; r++ {
		i++
		c0[r] = (i * 2654435761) % 256
		c1[r] = (i * 40503) % 64
		c2[r] = i % 97
	}
	g.i = i
}

func testServer(t *testing.T, tasks int) *Server {
	t.Helper()
	srv := newTestServer(t, tasks)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// newTestServer builds the test server without starting it, for tests
// that must touch the engine before the serve loop owns it.
func newTestServer(t *testing.T, tasks int) *Server {
	t.Helper()
	engCfg := engine.DefaultConfig()
	engCfg.Nodes = 2
	engCfg.NumPartitions = 4
	engCfg.NumGroups = 8
	engCfg.SourceTasks = tasks
	engCfg.TupleWeight = 1
	engCfg.ExactWindows = true
	srv, err := NewServer(Config{
		Workload:   serveWorkload(),
		Engine:     engCfg,
		Addr:       "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		RingBlocks: 8,
		BlockRows:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitIngested polls until the engine has claimed want rows (the rings
// drain asynchronously after the producers finish).
func waitIngested(t *testing.T, srv *Server, want int64) Report {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rep := srv.Report()
		if rep.IngestedRows >= want {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d rows, want %d", rep.IngestedRows, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeBlastLoopback is the end-to-end path: blast a fixed row
// budget at a serve instance over loopback TCP and assert every row
// crosses the ring into the engine and produces query results.
func TestServeBlastLoopback(t *testing.T) {
	srv := testServer(t, 1)
	defer srv.Stop()

	const rows = 64 * 512
	res, err := Blast(BlastConfig{
		Addr:      srv.Addr(),
		Workload:  serveWorkload(),
		Tasks:     1,
		Rows:      rows,
		BlockRows: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows < rows {
		t.Fatalf("blast sent %d rows, want >= %d", res.Rows, rows)
	}

	rep := waitIngested(t, srv, res.Rows)
	if rep.IngestedRows != res.Rows {
		t.Fatalf("ingested %d rows, blast sent %d", rep.IngestedRows, res.Rows)
	}
	if len(rep.Queries) != 1 {
		t.Fatalf("report lists %d queries", len(rep.Queries))
	}
	// Window results lag ingest: the serve loop keeps ticking idle so
	// virtual time crosses the 1s window boundary shortly after.
	deadline := time.Now().Add(15 * time.Second)
	for rep.Queries[0].Results == 0 {
		if time.Now().After(deadline) {
			t.Fatal("served tuples produced no window results")
		}
		time.Sleep(10 * time.Millisecond)
		rep = srv.Report()
	}
	if rep.IngestBlocks == 0 {
		t.Fatal("ingest block counter never moved")
	}
}

// sendFrames streams frames×rows rows of def's task source to the ring
// (stream 0, task) over the binary protocol and returns Σ column 2.
func sendFrames(addr string, def engine.StreamDef, task, frames, rows int) (sum float64, err error) {
	return sendFramesEvery(addr, def, task, frames, rows, 0)
}

// sendFramesEvery is sendFrames on an open-loop schedule: frame f is
// due f×every after the first, however long the writes before it took.
func sendFramesEvery(addr string, def engine.StreamDef, task, frames, rows int, every time.Duration) (sum float64, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := WriteHeader(conn, Header{Stream: 0, Task: task, Cols: def.NumCols}); err != nil {
		return 0, err
	}
	src := def.NewSource(task)
	var blk engine.TupleBlock
	var scratch []byte
	blk.Resize(rows, def.NumCols)
	start := time.Now()
	for f := 0; f < frames; f++ {
		time.Sleep(time.Until(start.Add(time.Duration(f) * every)))
		src.NextBlock(&blk, 0, rows)
		for _, v := range blk.Col[2] {
			sum += float64(v)
		}
		if err := WriteFrame(conn, &blk, def.NumCols, &scratch); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// waitResults polls query 0's results until they weigh want rows —
// windows close as idle ticks carry virtual time past them — or 15 s
// pass, and returns their total weight and sum.
func waitResults(srv *Server, want float64) (weight, sum float64) {
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		weight, sum = 0, 0
		srv.mu.Lock()
		for _, r := range srv.System().Engine().Results(0) {
			weight += r.Weight
			sum += r.Sum
		}
		srv.mu.Unlock()
		if weight >= want || time.Now().After(deadline) {
			return weight, sum
		}
	}
}

// TestServeConservationUnderParallelTicks extends the worker-count
// contract to the wall-clock path, which the determinism suite in
// internal/core does not reach: with ticks fanned over worker
// goroutines the consumer side of each SPSC ingest ring migrates
// between goroutines tick to tick, and every row must still be counted
// exactly once. A fixed row set is served over loopback in exact mode
// with the tick pinned inline and pinned parallel, and both must
// conserve rows and sums. scripts/ci.sh runs this package under -race.
func TestServeConservationUnderParallelTicks(t *testing.T) {
	parallel.SetBudget(4) // grant the pinned workers even on a 1-core host
	defer parallel.SetBudget(-1)

	const tasks, frames, frameRows = 2, 48, 512
	def := serveWorkload().Streams[0]
	for _, pinned := range []int{1, 2} {
		t.Run(fmt.Sprintf("pinned%d", pinned), func(t *testing.T) {
			srv := newTestServer(t, tasks)
			srv.System().Engine().PinTickWorkers(pinned)
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()

			sums := make([]float64, tasks)
			errs := make(chan error, tasks)
			for task := 0; task < tasks; task++ {
				go func(task int) {
					var err error
					sums[task], err = sendFrames(srv.Addr(), def, task, frames, frameRows)
					errs <- err
				}(task)
			}
			for task := 0; task < tasks; task++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			const sent = tasks * frames * frameRows
			wantSum := sums[0] + sums[1]

			waitIngested(t, srv, sent)
			weight, sum := waitResults(srv, sent)
			rep := srv.Report()
			if rep.IngestedRows != sent || weight != sent || sum != wantSum || rep.Refused != 0 {
				t.Fatalf("sent %d rows summing %g: engine generated %d, results weigh %g and sum %g, %g refused",
					sent, wantSum, rep.IngestedRows, weight, sum, rep.Refused)
			}
			if (rep.ParallelTicks > 0) != (pinned > 1) {
				t.Fatalf("pinned %d workers, report says %d parallel ticks (latest on %d workers)",
					pinned, rep.ParallelTicks, rep.TickWorkers)
			}
		})
	}
}

// TestServeMultiTaskRings checks that each (stream, task) ring is an
// independent producer lane: two blast connections land their rows on
// two rings, and a third connection for a claimed ring is refused.
func TestServeMultiTaskRings(t *testing.T) {
	srv := testServer(t, 2)
	defer srv.Stop()

	const rows = 16 * 512
	res, err := Blast(BlastConfig{
		Addr:      srv.Addr(),
		Workload:  serveWorkload(),
		Tasks:     2,
		Rows:      rows,
		BlockRows: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitIngested(t, srv, res.Rows)

	for task := 0; task < 2; task++ {
		if srv.Queue(0, task) == nil {
			t.Fatalf("no queue for task %d", task)
		}
	}
	if srv.Queue(0, 2) != nil || srv.Queue(1, 0) != nil {
		t.Fatal("out-of-range queue lookup returned a ring")
	}
}

// TestHTTPIngestAndReport drives the JSON front-end: POST rows, then
// read them back through /report and /metrics.
func TestHTTPIngestAndReport(t *testing.T) {
	srv := testServer(t, 1)
	defer srv.Stop()
	base := "http://" + srv.HTTPAddr()

	body, _ := json.Marshal(ingestRequest{
		Stream: 0, Task: 0,
		Rows: [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
	})
	resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	waitIngested(t, srv, 3)

	resp, err = http.Get(base + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.IngestedRows != 3 {
		t.Fatalf("report says %d rows, want 3", rep.IngestedRows)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("serve_ingest_rows_total")) {
		t.Fatalf("metrics dump lacks serve counters:\n%s", buf.String())
	}
}

// TestHTTPIngestValidation pins the error paths: wrong arity, unknown
// stream, wrong method.
func TestHTTPIngestValidation(t *testing.T) {
	srv := testServer(t, 1)
	defer srv.Stop()
	base := "http://" + srv.HTTPAddr()

	post := func(v any) int {
		body, _ := json.Marshal(v)
		resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(ingestRequest{Stream: 9, Rows: [][]int64{{1, 2, 3}}}); got != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", got)
	}
	if got := post(ingestRequest{Stream: 0, Rows: [][]int64{{1}}}); got != http.StatusBadRequest {
		t.Fatalf("wrong arity: %d", got)
	}
	resp, err := http.Get(base + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}
}

// TestServeIngestsThroughSolves: the optimizer solves beside the serve
// loop, so rows keep being claimed while it runs. An open-loop producer
// sends a frame every 2 ms; the optimizer fires every 400 virtual
// milliseconds and spends its whole wall-clock budget on each cascade
// step (32 groups over 8 partitions is past what branch and bound
// finishes), a few hundred milliseconds a round. Before the solve left
// the loop, ingest stood still that long. The solver here is the real
// one — core's solve seam is unexported on purpose — and the report's
// last_solve_ms shows the rounds were as long as intended.
func TestServeIngestsThroughSolves(t *testing.T) {
	const frames, frameRows, every = 1000, 512, 2 * time.Millisecond
	engCfg := engine.DefaultConfig()
	engCfg.Nodes = 4
	engCfg.NumPartitions = 8
	engCfg.NumGroups = 32
	engCfg.SourceTasks = 1
	engCfg.TupleWeight = 1
	engCfg.ExactWindows = true
	coreCfg := core.DefaultConfig()
	coreCfg.TriggerInterval = 400 * vtime.Millisecond
	coreCfg.Opt = optimizer.Options{Timeout: 100 * time.Millisecond}
	srv, err := NewServer(Config{
		Workload: serveWorkload(), Engine: engCfg, Core: coreCfg,
		Addr: "127.0.0.1:0", RingBlocks: 64, BlockRows: frameRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	def := serveWorkload().Streams[0]
	type sent struct {
		sum float64
		err error
	}
	done := make(chan sent, 1)
	go func() {
		sum, err := sendFramesEvery(srv.Addr(), def, 0, frames, frameRows, every)
		done <- sent{sum, err}
	}()

	// Watch the claimed-row count while the producer runs: the longest
	// stretch of wall time over which blocks sat in the ring and none
	// was claimed, and the longest solve.
	var out sent
	var maxGap time.Duration
	var maxSolveMs float64
	var claimed int64
	var stuckSince time.Time
	for producing := true; producing; {
		select {
		case out = <-done:
			producing = false
		case <-time.After(time.Millisecond):
		}
		rep := srv.Report()
		maxSolveMs = max(maxSolveMs, rep.LastSolveMs)
		switch {
		case rep.IngestedRows > claimed || srv.Queue(0, 0).Pending() == 0:
			claimed, stuckSince = rep.IngestedRows, time.Time{}
		case stuckSince.IsZero():
			stuckSince = time.Now()
		default:
			maxGap = max(maxGap, time.Since(stuckSince))
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	rep := waitIngested(t, srv, frames*frameRows)
	t.Logf("%d triggers, longest solve %.0f ms, longest ingest gap %v, %d stale", rep.Triggers, maxSolveMs, maxGap, rep.StalePlans)
	if rep.Triggers < 2 || maxSolveMs < 100 {
		t.Fatalf("%d triggers, longest solve %.0f ms: the run never exercised a long solve", rep.Triggers, maxSolveMs)
	}
	if maxGap > 50*time.Millisecond {
		t.Fatalf("ingest stood still for %v while the optimizer solved", maxGap)
	}

	weight, sum := waitResults(srv, frames*frameRows)
	rep = srv.Report()
	if rep.IngestedRows != frames*frameRows || weight != frames*frameRows || sum != out.sum || rep.Refused != 0 {
		t.Fatalf("sent %d rows summing %g: engine generated %d, results weigh %g and sum %g, %g refused",
			frames*frameRows, out.sum, rep.IngestedRows, weight, sum, rep.Refused)
	}
	if got := rep.Queries[0].Results; got != len(srv.System().Engine().Results(0)) {
		t.Fatalf("report counts %d results, the log holds %d", got, len(srv.System().Engine().Results(0)))
	}
}
