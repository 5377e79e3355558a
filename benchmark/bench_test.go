package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"saspar/internal/engine"
	srt "saspar/internal/runtime"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:1000], 99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if v, err := percentile(xs, 99); err != nil || v != 1089 {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089 (11 beyond)", v, err)
	}
	if v, err := percentile(xs, 50); err != nil || v != 550 {
		t.Errorf("p50 of 1..1100 = %v, %v; want 550", v, err)
	}
	if _, err := percentile(xs[:15], 50); err == nil {
		t.Error("p50 of 15 samples has 7 beyond it and must be refused")
	}
	if _, err := percentile(xs, 100); err == nil {
		t.Error("p100 is not a percentile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	q1, q3 = quartiles([]float64{50, 10, 40, 20, 30})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles = %v, %v; want 15, 45", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTimelineLookup(t *testing.T) {
	tl := &timeline{}
	for _, s := range []sample{
		{at: 10, rows: 0, results: 0},
		{at: 20, rows: 4096, results: 0},
		{at: 30, rows: 4096, results: 3},
		{at: 40, rows: 12288, results: 3},
		{at: 50, rows: 12288, results: 7},
	} {
		s.at *= time.Millisecond
		tl.add(s)
	}
	for _, c := range []struct {
		rows int64
		at   time.Duration
		ok   bool
	}{{1, 20, true}, {4096, 20, true}, {4097, 40, true}, {12288, 40, true}, {12289, 0, false}} {
		at, ok := tl.firstRows(c.rows)
		if ok != c.ok || at != c.at*time.Millisecond {
			t.Errorf("firstRows(%d) = %v, %v; want %vms, %v", c.rows, at, ok, c.at, c.ok)
		}
	}
	// A probe whose result has index 3 is visible once 4 results are.
	if at, ok := tl.firstResults(4); !ok || at != 50*time.Millisecond {
		t.Errorf("firstResults(4) = %v, %v; want 50ms", at, ok)
	}
	if at, ok := tl.firstResults(3); !ok || at != 30*time.Millisecond {
		t.Errorf("firstResults(3) = %v, %v; want 30ms", at, ok)
	}
	if _, ok := tl.firstResults(8); ok {
		t.Error("firstResults(8) found a sample that does not exist")
	}
	if s, ok := tl.at(35 * time.Millisecond); !ok || s.rows != 4096 || s.results != 3 {
		t.Errorf("at(35ms) = %+v, %v; want the 30ms sample", s, ok)
	}
	if _, ok := tl.at(5 * time.Millisecond); ok {
		t.Error("at(5ms) found a sample before the first one")
	}
}

func TestProbePatch(t *testing.T) {
	spec, err := newServeSpec(wlGcmSat)
	if err != nil {
		t.Fatal(err)
	}
	def := spec.wl.Streams[0]
	const rows = 64
	in, err := encodeInput(def, 0, 7, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(frame []byte) *engine.TupleBlock {
		var b engine.TupleBlock
		var scratch []byte
		if n, err := srt.ReadFrame(bytes.NewReader(frame), &b, def.NumCols, &scratch); err != nil || n != rows {
			t.Fatalf("decode: %d rows, %v", n, err)
		}
		return &b
	}
	before := decode(in.frames[1])
	in.probeOff = frameOffset(rows, spec.probeCol(), 0)
	after := decode(in.frame(4)) // cycle slot 1, fifth frame sent
	for c := 0; c < def.NumCols; c++ {
		for r := 0; r < rows; r++ {
			want := before.Col[c][r]
			if c == spec.probeCol() && r == 0 {
				want = int64(probeKey(4))
			}
			if got := after.Col[c][r]; got != want {
				t.Fatalf("col %d row %d = %d, want %d", c, r, got, want)
			}
		}
	}
	// The generated sums are still the sent sums of every aggregated column.
	for _, q := range spec.wl.Queries {
		var sum int64
		for _, v := range after.Col[q.AggCol][:rows] {
			sum += v
		}
		if sum != in.sums[1][q.AggCol] {
			t.Errorf("column %d: frame sums to %d, recorded %d", q.AggCol, sum, in.sums[1][q.AggCol])
		}
	}
	if got, want := in.sentSum(4, 7), float64(2*(in.sums[0][4]+in.sums[1][4]+in.sums[2][4])+in.sums[0][4]); got != want {
		t.Errorf("sentSum over 7 frames of a 3-frame cycle = %v, want %v", got, want)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		triggers, results int
		rows              int64
		want              string
	}{
		{1, 5, 4096, classSolve}, // a solve outranks the close it shares a tick with
		{1, 0, 0, classSolve},
		{0, 5, 4096, classClose},
		{0, 5, 0, classClose}, // an idle tick that drained a window still closed it
		{0, 0, 0, classIdle},
		{0, 0, 4096, classRoute},
	} {
		if got := classify(c.triggers, c.results, c.rows); got != c.want {
			t.Errorf("classify(%d, %d, %d) = %s, want %s", c.triggers, c.results, c.rows, got, c.want)
		}
	}
}

// fakeClock is a clock that only moves when slept on or pushed.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func TestScheduleIsOpenLoop(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sch := schedule{start: start, rows: 1024, rate: 1e6} // one frame every 1.024 ms
	const gap = 1024 * time.Microsecond

	if late := sch.wait(clk, 0); late != 0 || len(clk.sleeps) != 0 {
		t.Errorf("frame 0 is due at the start: late %v, sleeps %v", late, clk.sleeps)
	}
	if late := sch.wait(clk, 1); late != 0 || clk.now != start.Add(gap) {
		t.Errorf("frame 1: late %v at %v, want on time at +%v", late, clk.now.Sub(start), gap)
	}
	// The write of frame 1 blocks for 5 ms: frames 2..5 are overdue.
	clk.now = clk.now.Add(5 * time.Millisecond)
	sleeps := len(clk.sleeps)
	for i := 2; i <= 5; i++ {
		want := clk.now.Sub(start.Add(time.Duration(i) * gap))
		if late := sch.wait(clk, i); late != want {
			t.Errorf("frame %d: late %v, want %v (due time comes from the table, not from the last write)", i, late, want)
		}
		if due := sch.due(i); due != start.Add(time.Duration(i)*gap) {
			t.Errorf("frame %d due at +%v, want +%v", i, due.Sub(start), time.Duration(i)*gap)
		}
	}
	if len(clk.sleeps) != sleeps {
		t.Errorf("an overdue frame must be written at once, slept %v", clk.sleeps[sleeps:])
	}
	// Once caught up, the generator is back on the original table.
	if late := sch.wait(clk, 6); late != 0 || clk.now != start.Add(6*gap) {
		t.Errorf("frame 6: late %v at +%v, want on time at +%v", late, clk.now.Sub(start), 6*gap)
	}
}

// smokeSize is a hundredth of the default pass.
const smokeSeconds = 18.0 / reps / 100

func TestSmokeServe(t *testing.T) {
	for _, name := range []string{wlMixSat, wlGcmSat, wlAggOpen} {
		spec, err := newServeSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		size := sizeServe(spec, smokeSeconds)
		res, err := runServe(spec, 1, size, serveOpts{}, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || len(res.Errors) != 0 {
			t.Errorf("%s: %d of %d frames failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		if len(res.ClaimMs) != size.measFrames || len(res.CloseMs) != size.measFrames {
			t.Errorf("%s: %d claim and %d close latencies for %d measured frames", name, len(res.ClaimMs), len(res.CloseMs), size.measFrames)
		}
		for _, m := range []string{"setup_s", "rows_per_s", "peak_rss_mb"} {
			if res.Metrics[m] <= 0 {
				t.Errorf("%s: %s = %v", name, m, res.Metrics[m])
			}
		}
	}
}

func TestCorruptFrameFailsTheCheck(t *testing.T) {
	spec, err := newServeSpec(wlAggOpen)
	if err != nil {
		t.Fatal(err)
	}
	size := sizeServe(spec, smokeSeconds)
	res, err := runServe(spec, 1, size, serveOpts{corruptFrame: size.warmFrames + 1}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Attempted || len(res.Errors) == 0 {
		t.Errorf("one corrupted value must fail the run: %d of %d failed, errors %v", res.Failed, res.Attempted, res.Errors)
	}
	s := summarize(wlAggOpen, []*repResult{res}, false)
	if s.correct() {
		t.Error("summary of a failed repetition reads correct")
	}
}

func TestSmokeVirtRepeatsExactly(t *testing.T) {
	size := sizeVirt(smokeSeconds*10, virtTick) // long enough to reach the first trigger
	a, err := runVirtPass(1, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runVirtPass(1, size)
	if err != nil {
		t.Fatal(err)
	}
	if a.snapshot != b.snapshot {
		t.Errorf("two runs of the measured phase differ:\n%s\n%s", a.snapshot, b.snapshot)
	}
	if a.rows == 0 {
		t.Error("no tuples generated")
	}
	claim, closing := virtLatencies(a)
	if a.closeTicks() != 4 || len(claim) != size.measFrames-1 || len(closing) != size.measFrames-3 {
		t.Errorf("%d claim, %d close latencies for %d ticks", len(claim), len(closing), size.measFrames)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in
// step with the metric and workload tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from workloadWhy", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound differs from %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
