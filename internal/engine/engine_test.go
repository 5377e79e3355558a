package engine

import (
	"reflect"
	"testing"
	"testing/quick"

	"saspar/internal/keyspace"
	"saspar/internal/vtime"
)

// rowSource lifts a per-row Generator to Source for engine-internal
// tests. The public adapter is workload.RowAdapter — importing it here
// would cycle (workload imports engine), so the tests carry this twin.
type rowSource struct {
	g    Generator
	cols int
	shim Tuple
}

func (s *rowSource) NextBlock(b *TupleBlock, from, to int) {
	t := &s.shim
	for r := from; r < to; r++ {
		s.g.Next(t, b.TS[r])
		for c := 0; c < s.cols; c++ {
			b.Col[c][r] = t.Cols[c]
		}
	}
}

// testStream builds a deterministic stream: col0 cycles over `keys`
// entity IDs, col1 is a correlated second key, col2 is the value 1
// (so SUM == COUNT and results are easy to predict).
func testStream(name string, keys int64) StreamDef {
	return StreamDef{
		Name:          name,
		NumCols:       3,
		BytesPerTuple: 100,
		NewSource: func(task int) Source {
			i := int64(task) * 1009
			return &rowSource{cols: 3, g: GeneratorFunc(func(t *Tuple, ts vtime.Time) {
				i++
				t.Cols[0] = i % keys
				t.Cols[1] = (i * 7) % keys
				t.Cols[2] = 1
			})}
		},
	}
}

func lightConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NumPartitions = 4
	cfg.NumGroups = 8
	cfg.SourceTasks = 2
	cfg.ExactWindows = true
	cfg.Tick = 100 * vtime.Millisecond
	cfg.WatermarkLag = 200 * vtime.Millisecond
	return cfg
}

func aggQuery(id string, keyCol int) QuerySpec {
	return QuerySpec{
		ID:     id,
		Kind:   OpAggregate,
		Inputs: []Input{{Stream: 0, Key: KeySpec{keyCol}}},
		Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second},
		AggCol: 2,
	}
}

func TestWindowsOfProperties(t *testing.T) {
	w := WindowSpec{Range: 3 * vtime.Second, Slide: vtime.Second}
	f := func(sec uint16) bool {
		ts := vtime.Time(sec) * vtime.Time(vtime.Second/4)
		wins := w.WindowsOf(ts)
		if len(wins) == 0 || len(wins) > w.Panes() {
			return false
		}
		for _, s := range wins {
			if ts < s || ts >= s.Add(w.Range) {
				return false
			}
			if s%vtime.Time(w.Slide) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsOfTumbling(t *testing.T) {
	w := WindowSpec{Range: vtime.Second, Slide: vtime.Second}
	wins := w.WindowsOf(vtime.Time(1500 * vtime.Millisecond))
	if len(wins) != 1 || wins[0] != vtime.Time(vtime.Second) {
		t.Fatalf("WindowsOf(1.5s) = %v, want [1s]", wins)
	}
}

func TestWindowSpecPanes(t *testing.T) {
	cases := []struct {
		r, s vtime.Duration
		want int
	}{
		{vtime.Second, vtime.Second, 1},
		{3 * vtime.Second, vtime.Second, 3},
		{vtime.Minute, vtime.Second, 60},
		{3 * vtime.Second, 2 * vtime.Second, 2},
	}
	for _, c := range cases {
		if got := (WindowSpec{Range: c.r, Slide: c.s}).Panes(); got != c.want {
			t.Errorf("Panes(%v/%v) = %d, want %d", c.r, c.s, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	streams := []StreamDef{testStream("s", 10)}
	queries := []QuerySpec{aggQuery("q", 0)}
	ok := lightConfig()
	if _, err := New(ok, streams, queries); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.NumPartitions = 0 },
		func(c *Config) { c.NumGroups = 2 }, // fewer than partitions
		func(c *Config) { c.SourceTasks = 0 },
		func(c *Config) { c.TupleWeight = 0.5 },
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.Profile = Profile{Name: "mb", MicroBatch: true} }, // no interval
	}
	for i, mut := range bad {
		cfg := lightConfig()
		mut(&cfg)
		if _, err := New(cfg, streams, queries); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	badQ := []QuerySpec{
		{ID: "q", Kind: OpAggregate, Inputs: nil, Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second}},
		{ID: "q", Kind: OpJoin, Inputs: []Input{{Stream: 0, Key: KeySpec{0}}}, Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second}},
		{ID: "q", Kind: OpAggregate, Inputs: []Input{{Stream: 9, Key: KeySpec{0}}}, Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second}},
		{ID: "q", Kind: OpAggregate, Inputs: []Input{{Stream: 0, Key: KeySpec{5}}}, Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second}},
		{ID: "q", Kind: OpAggregate, Inputs: []Input{{Stream: 0, Key: KeySpec{0}}}, Window: WindowSpec{Range: vtime.Second, Slide: 2 * vtime.Second}},
	}
	for i, q := range badQ {
		if _, err := New(lightConfig(), streams, []QuerySpec{q}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// runExact runs a single-agg-query engine for d and returns its sorted
// emitted results.
func runExact(t *testing.T, cfg Config, d vtime.Duration, reconfig func(e *Engine)) []AggResult {
	t.Helper()
	streams := []StreamDef{testStream("s", 16)}
	queries := []QuerySpec{aggQuery("q0", 0)}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	if reconfig != nil {
		e.Run(d / 2)
		reconfig(e)
		e.Run(d / 2)
	} else {
		e.Run(d)
	}
	rs := append([]AggResult(nil), e.Results(0)...)
	SortAggResults(rs)
	return rs
}

func TestExactAggregationEmitsResults(t *testing.T) {
	rs := runExact(t, lightConfig(), 10*vtime.Second, nil)
	if len(rs) == 0 {
		t.Fatal("no window results emitted")
	}
	// 200 tuples/s over 16 keys, 1s tumbling windows: each closed window
	// should hold ~12.5 tuples per key; sum == weight because value = 1.
	var totW float64
	for _, r := range rs {
		if r.Sum != r.Weight {
			t.Fatalf("result %+v: sum != weight despite value=1", r)
		}
		totW += r.Weight
	}
	// At least 8 windows closed (wm lag ~1.2s) * 200 tuples.
	if totW < 8*200*0.9 {
		t.Fatalf("closed-window tuple mass %.0f too small", totW)
	}
}

func TestResultsInvariantAcrossPartitionCounts(t *testing.T) {
	// The same query over the same stream must produce identical window
	// results regardless of how many partition slots execute it.
	cfgA := lightConfig()
	cfgB := lightConfig()
	cfgB.NumPartitions = 2
	a := runExact(t, cfgA, 10*vtime.Second, nil)
	b := runExact(t, cfgB, 10*vtime.Second, nil)
	if len(a) == 0 {
		t.Fatal("no results")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across partition counts: %d vs %d rows", len(a), len(b))
	}
}

// moveSomeGroups builds a new assignment for query 0 with half the
// groups rotated to the next partition.
func moveSomeGroups(e *Engine) *keyspace.Assignment {
	na := e.Assignment(0).Clone()
	for g := 0; g < na.NumGroups(); g += 2 {
		p := (na.Partition(keyspace.GroupID(g)) + 1) % keyspace.PartitionID(e.Config().NumPartitions)
		na.Set(keyspace.GroupID(g), p)
	}
	return na
}

func TestReconfigurationPreservesResults(t *testing.T) {
	// The paper's correctness guarantee (Section III): a live
	// re-partitioning mid-run must not change any emitted window result.
	base := runExact(t, lightConfig(), 12*vtime.Second, nil)
	moved := runExact(t, lightConfig(), 12*vtime.Second, func(e *Engine) {
		if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
			t.Fatal(err)
		}
		// Drive the protocol to completion, then finalize.
		epoch := e.Epoch()
		for i := 0; i < 100 && !e.ReconfigComplete(epoch); i++ {
			e.Run(e.Config().Tick)
		}
		if !e.ReconfigComplete(epoch) {
			t.Fatal("reconfiguration never completed")
		}
		e.InjectFinalize()
	})
	if len(base) == 0 {
		t.Fatal("no results")
	}
	// The reconfigured run advanced slightly further in virtual time
	// (the completion loop), so compare the common prefix of windows.
	last := base[len(base)-1].Win
	var movedTrim []AggResult
	for _, r := range moved {
		if r.Win <= last {
			movedTrim = append(movedTrim, r)
		}
	}
	if !reflect.DeepEqual(base, movedTrim) {
		t.Fatalf("reconfiguration changed results: base %d rows, reconfigured %d rows", len(base), len(movedTrim))
	}
}

func TestReconfigurationCountsReshuffledTuples(t *testing.T) {
	cfg := lightConfig()
	streams := []StreamDef{testStream("s", 16)}
	queries := []QuerySpec{aggQuery("q0", 0)}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 500)
	e.Metrics().StartMeasurement(0)
	e.Run(5 * vtime.Second)
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
		t.Fatal(err)
	}
	e.Run(2 * vtime.Second)
	e.Metrics().StopMeasurement(e.Clock())
	if e.Metrics().Reshuffled() <= 0 {
		t.Fatal("moving key groups reshuffled no tuples")
	}
	if e.Metrics().JITCompiles() == 0 {
		t.Fatal("reconfiguration triggered no JIT compilations")
	}
}

func TestReconfigRejectsWhileInFlight(t *testing.T) {
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q0", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 200)
	e.Run(vtime.Second)
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err == nil {
		t.Fatal("overlapping reconfiguration accepted")
	}
}

func TestReconfigValidation(t *testing.T) {
	cfg := lightConfig()
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q0", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{5: keyspace.NewAssignment(8)}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: keyspace.NewAssignment(3)}); err == nil {
		t.Fatal("wrong group count accepted")
	}
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: keyspace.NewAssignment(8)}); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
	bad := e.Assignment(0).Clone()
	bad.Set(0, keyspace.PartitionID(99))
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: bad}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// twoQueryEngine builds two same-key aggregation queries over one
// stream in counting mode.
func twoQueryEngine(t *testing.T, shared bool) *Engine {
	t.Helper()
	cfg := lightConfig()
	cfg.ExactWindows = false
	cfg.Shared = shared
	streams := []StreamDef{testStream("s", 64)}
	queries := []QuerySpec{aggQuery("q0", 0), aggQuery("q1", 0)}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 10000)
	return e
}

func TestSharedPartitioningHalvesNetworkBytes(t *testing.T) {
	// Two queries with the same partitioning key share every tuple
	// (all green in Fig. 1c): the shared run must move about half the
	// bytes of the unshared run.
	ns := twoQueryEngine(t, false)
	sh := twoQueryEngine(t, true)
	ns.Run(5 * vtime.Second)
	sh.Run(5 * vtime.Second)
	nb := ns.Network().Stats().BytesNet
	sb := sh.Network().Stats().BytesNet
	if nb == 0 || sb == 0 {
		t.Fatalf("no network traffic: ns=%v sh=%v", nb, sb)
	}
	ratio := nb / sb
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("non-shared/shared byte ratio = %.2f, want ~2.0", ratio)
	}
}

func TestSharedPreservesLogicalThroughputAccounting(t *testing.T) {
	// Sharing dedupes physical copies but both queries still process
	// every tuple logically: the overall (summed) throughput counts
	// each query's consumption. In counting mode identical queries'
	// metrics aggregate onto their route class's representative.
	sh := twoQueryEngine(t, true)
	sh.Metrics().StartMeasurement(0)
	sh.Run(5 * vtime.Second)
	sh.Metrics().StopMeasurement(sh.Clock())
	if got := sh.Metrics().OverallThroughput(); got < 18000 || got > 22000 {
		t.Fatalf("overall throughput %v, want ~20000 (2 queries x 10000)", got)
	}
}

func TestBackpressureThrottlesSources(t *testing.T) {
	cfg := lightConfig()
	cfg.ExactWindows = false
	cfg.NodeConfig.NICBytesPerSec = 50e3 // 50 KB/s: ~500 remote tuples/s per node
	cfg.Net.MaxQueueBytes = 256 << 10
	streams := []StreamDef{testStream("s", 64)}
	queries := []QuerySpec{aggQuery("q0", 0)}
	e, err := New(cfg, streams, queries)
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 100000) // far beyond capacity
	e.Run(10 * vtime.Second)   // let backpressure settle
	e.Metrics().StartMeasurement(e.Clock())
	netBefore := e.Network().Stats().BytesNet
	e.Run(10 * vtime.Second)
	e.Metrics().StopMeasurement(e.Clock())
	got := e.Metrics().OverallThroughput()
	// Backpressure invariants: the accepted rate is a small fraction of
	// the offered 100k, and the wire never carries more than the NICs
	// can move.
	if got > 15000 {
		t.Fatalf("throughput %v: backpressure failed to throttle a 100k offered rate", got)
	}
	wire := (e.Network().Stats().BytesNet - netBefore) / 10 // bytes per virtual second
	capacity := 50e3 * float64(e.Config().Nodes)
	if wire > capacity*1.1 {
		t.Fatalf("wire rate %v exceeds NIC capacity %v", wire, capacity)
	}
	if got < 50 {
		t.Fatalf("throughput %v collapsed entirely", got)
	}
	if e.Metrics().AvgLatency() < vtime.Millisecond {
		t.Fatalf("latency %v implausibly low under saturation", e.Metrics().AvgLatency())
	}
}

func TestMicroBatchDefersReconfigToBoundary(t *testing.T) {
	cfg := lightConfig()
	cfg.ExactWindows = false
	cfg.Profile = Profile{Name: "prompt", MicroBatch: true, BatchInterval: vtime.Second}
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q0", 0)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 1000)
	e.Run(2500 * vtime.Millisecond) // mid-batch
	if err := e.InjectReconfig(map[int]*keyspace.Assignment{0: moveSomeGroups(e)}); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 0 {
		t.Fatal("micro-batch reconfig applied before the boundary")
	}
	e.Run(600 * vtime.Millisecond) // crosses the 3s boundary
	if e.Epoch() == 0 {
		t.Fatal("micro-batch reconfig never applied at the boundary")
	}
}

func TestMicroBatchLatencyExceedsTupleAtATime(t *testing.T) {
	run := func(p Profile) vtime.Duration {
		cfg := lightConfig()
		cfg.ExactWindows = false
		cfg.Profile = p
		e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{aggQuery("q0", 0)})
		if err != nil {
			t.Fatal(err)
		}
		e.SetStreamRate(0, 1000)
		e.Metrics().StartMeasurement(0)
		e.Run(10 * vtime.Second)
		e.Metrics().StopMeasurement(e.Clock())
		return e.Metrics().AvgLatency()
	}
	taat := run(Profile{Name: "flink"})
	mb := run(Profile{Name: "prompt", MicroBatch: true, BatchInterval: vtime.Second})
	if mb <= taat {
		t.Fatalf("micro-batch latency %v not above tuple-at-a-time %v", mb, taat)
	}
	if mb < 300*vtime.Millisecond {
		t.Fatalf("micro-batch latency %v should include batch residency", mb)
	}
}

func TestSamplerReceivesVectors(t *testing.T) {
	cfg := lightConfig()
	cfg.ExactWindows = false
	e, err := New(cfg, []StreamDef{testStream("s", 16)},
		[]QuerySpec{aggQuery("q0", 0), aggQuery("q1", 1)})
	if err != nil {
		t.Fatal(err)
	}
	var n, maxClasses int
	e.SetSampler(samplerFunc(func(v SampleVec) {
		n++
		if len(v.Classes) != len(v.Groups) {
			t.Fatal("ragged sample vector")
		}
		if len(v.Classes) > maxClasses {
			maxClasses = len(v.Classes)
		}
	}), 10)
	e.SetStreamRate(0, 1000)
	e.Run(2 * vtime.Second)
	if n == 0 {
		t.Fatal("sampler never invoked")
	}
	if maxClasses != 2 {
		t.Fatalf("sample vectors cover %d classes, want 2 (one per key spec)", maxClasses)
	}
}

type samplerFunc func(SampleVec)

func (f samplerFunc) Sample(v SampleVec) { f(v) }

// classMembers reports, for every route class of a stream, the member
// query indexes.
func classMembers(e *Engine, s StreamID) [][]int {
	plan := e.plans[s]
	out := make([][]int, len(plan.classes))
	for i, rc := range plan.classes {
		for _, m := range rc.members {
			out[i] = append(out[i], m.q.idx)
		}
	}
	return out
}

func TestClassMembersCollapseIdenticalQueries(t *testing.T) {
	cfg := lightConfig()
	cfg.ExactWindows = false
	qs := []QuerySpec{aggQuery("a", 0), aggQuery("b", 0), aggQuery("c", 1)}
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, qs)
	if err != nil {
		t.Fatal(err)
	}
	cm := classMembers(e, 0)
	if len(cm) != 2 {
		t.Fatalf("got %d route classes, want 2", len(cm))
	}
	sizes := map[int]bool{len(cm[0]): true, len(cm[1]): true}
	if !sizes[1] || !sizes[2] {
		t.Fatalf("class sizes %v, want one class of 2 and one of 1", cm)
	}
}

func TestJoinQueryExactEmitsMatches(t *testing.T) {
	cfg := lightConfig()
	streams := []StreamDef{testStream("l", 8), testStream("r", 8)}
	q := QuerySpec{
		ID:   "j",
		Kind: OpJoin,
		Inputs: []Input{
			{Stream: 0, Key: KeySpec{0}},
			{Stream: 1, Key: KeySpec{0}},
		},
		Window: WindowSpec{Range: vtime.Second, Slide: vtime.Second},
	}
	e, err := New(cfg, streams, q1s(q))
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 100)
	e.SetStreamRate(1, 100)
	e.Metrics().StartMeasurement(0)
	e.Run(5 * vtime.Second)
	e.Metrics().StopMeasurement(e.Clock())
	if e.Metrics().EmittedTotal() == 0 {
		t.Fatal("join emitted no matches")
	}
}

func q1s(q QuerySpec) []QuerySpec { return []QuerySpec{q} }

func TestFilterSelectivityReducesTraffic(t *testing.T) {
	mk := func(sel float64) float64 {
		cfg := lightConfig()
		cfg.ExactWindows = false
		q := aggQuery("q0", 0)
		q.Inputs[0].Selectivity = sel
		q.Inputs[0].FilterID = int(sel * 100)
		e, err := New(cfg, []StreamDef{testStream("s", 64)}, []QuerySpec{q})
		if err != nil {
			t.Fatal(err)
		}
		e.SetStreamRate(0, 10000)
		e.Run(5 * vtime.Second)
		return e.Network().Stats().BytesNet
	}
	full := mk(1.0)
	half := mk(0.5)
	ratio := full / half
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("selectivity 0.5 moved %0.2fx fewer bytes, want ~2x", ratio)
	}
}

func TestConcreteFilterApplied(t *testing.T) {
	cfg := lightConfig()
	q := aggQuery("q0", 0)
	q.Inputs[0].Filter = func(t *Tuple) bool { return t.Cols[0] < 4 } // keys 0..3 of 16
	q.Inputs[0].FilterID = 1
	e, err := New(cfg, []StreamDef{testStream("s", 16)}, []QuerySpec{q})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStreamRate(0, 400)
	e.Run(6 * vtime.Second)
	for _, r := range e.Results(0) {
		if r.Key >= 4 {
			t.Fatalf("filtered key %d leaked into results", r.Key)
		}
	}
	if len(e.Results(0)) == 0 {
		t.Fatal("filter dropped everything")
	}
}

func TestNodeUtilizationTracked(t *testing.T) {
	e := twoQueryEngine(t, false)
	e.Run(3 * vtime.Second)
	if e.Network().Stats().Utilization <= 0 {
		t.Fatal("network utilization not tracked")
	}
}
