package bench

import (
	"bytes"
	"testing"

	"saspar/internal/engine"
	"saspar/internal/mip"
	"saspar/internal/vtime"
)

// The tests in this file assert the *shapes* the reproduction targets
// (DESIGN.md §4): who wins, in which direction curves bend — never
// absolute numbers. They run reduced grids of the figure harnesses.

func testScale() Scale {
	sc := Quick()
	sc.Warmup = 8 * vtime.Second
	sc.Measure = 8 * vtime.Second
	return sc
}

// pick returns the cell for (sut, queries) or fails.
func pick(t *testing.T, cells []TPCHCell, sut string, q int) TPCHCell {
	t.Helper()
	for _, c := range cells {
		if c.SUT == sut && c.Queries == q {
			return c
		}
	}
	t.Fatalf("no cell for %s %dq", sut, q)
	return TPCHCell{}
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness")
	}
	cells, err := TPCHGrid(testScale(), []int{1, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Single query: SASPAR must not hurt (paper: "approximately the
	// same").
	for _, kind := range []string{"AJoin", "Prompt", "Flink"} {
		v := pick(t, cells, kind, 1).ThroughputMTps
		s := pick(t, cells, "SASPAR+"+kind, 1).ThroughputMTps
		if s < 0.85*v {
			t.Errorf("1q: SASPAR+%s %.1f below 0.85x vanilla %.1f", kind, s, v)
		}
	}
	// Eight queries: every SASPAR-ed SUT beats its vanilla counterpart.
	for _, kind := range []string{"AJoin", "Prompt", "Flink"} {
		v := pick(t, cells, kind, 8).ThroughputMTps
		s := pick(t, cells, "SASPAR+"+kind, 8).ThroughputMTps
		if s <= v {
			t.Errorf("8q: SASPAR+%s %.1f not above vanilla %.1f", kind, s, v)
		}
	}
	// Micro-batch Prompt trails the tuple-at-a-time engines (Fig. 6's
	// architecture observation) and carries the highest latency (Fig. 7).
	if p, f := pick(t, cells, "Prompt", 8), pick(t, cells, "Flink", 8); p.ThroughputMTps >= f.ThroughputMTps {
		t.Errorf("8q: Prompt %.1f not below Flink %.1f", p.ThroughputMTps, f.ThroughputMTps)
	}
	if p, f := pick(t, cells, "Prompt", 8), pick(t, cells, "Flink", 8); p.LatencyMs <= f.LatencyMs {
		t.Errorf("8q latency: Prompt %.0fms not above Flink %.0fms", p.LatencyMs, f.LatencyMs)
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness")
	}
	sc := testScale()
	rows, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d size points", len(rows))
	}
	// The raw MIP must eventually hit its budget cap (the exponential
	// blow-up of Fig. 8a), while the heuristic optimizer finishes within
	// a few budgets everywhere.
	if !rows[len(rows)-1].MIPCapped {
		t.Error("raw MIP finished the largest instance — no exponential wall")
	}
	for _, r := range rows {
		if r.Accuracy <= 0 || r.Accuracy > 1 {
			t.Errorf("%v: accuracy %v outside (0,1]", r.Size, r.Accuracy)
		}
		if r.HeurMillis > 25*float64(sc.OptTimeout.Milliseconds()) {
			t.Errorf("%v: heuristic optimizer ran %.0fms, far beyond its budget", r.Size, r.HeurMillis)
		}
	}
	// Small instances solve exactly: accuracy 1 at the smallest size.
	if rows[0].Accuracy < 0.999 {
		t.Errorf("smallest instance accuracy %v, want ~1", rows[0].Accuracy)
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness")
	}
	sc := testScale()
	rows, err := Fig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sut string, q int) float64 {
		for _, r := range rows {
			if r.SUT == sut && r.Queries == q {
				return r.ThroughputMTps
			}
		}
		t.Fatalf("missing %s %dq", sut, q)
		return 0
	}
	hi := Fig10QueryCounts(sc)[len(Fig10QueryCounts(sc))-1]
	// AJoin dominates the vanilla SUTs on its home join workload.
	if get("AJoin", hi) <= get("Flink", hi) {
		t.Errorf("%dq: AJoin %.1f not above Flink %.1f", hi, get("AJoin", hi), get("Flink", hi))
	}
	// SASPAR+AJoin keeps climbing past vanilla AJoin's plateau — the
	// paper's 2-3x headline.
	if get("SASPAR+AJoin", hi) < 1.5*get("AJoin", hi) {
		t.Errorf("%dq: SASPAR+AJoin %.1f below 1.5x AJoin %.1f", hi, get("SASPAR+AJoin", hi), get("AJoin", hi))
	}
	// SASPAR-ed curves rise with query count.
	if get("SASPAR+AJoin", hi) <= get("SASPAR+AJoin", 5) {
		t.Errorf("SASPAR+AJoin did not grow from 5q to %dq", hi)
	}
}

func TestFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness")
	}
	rows, err := Fig13(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ThroughputMTps <= 0 {
			t.Errorf("%s %dq: no throughput", r.SUT, r.Queries)
		}
	}
	// Two cheap aggregation queries: SASPAR helps at most modestly and
	// must not hurt much — the graceful-degradation point of Fig. 13.
	var s2, v2 float64
	for _, r := range rows {
		if r.Queries == 2 && r.SUT == "SASPAR+Flink" {
			s2 = r.ThroughputMTps
		}
		if r.Queries == 2 && r.SUT == "Flink" {
			v2 = r.ThroughputMTps
		}
	}
	if s2 < 0.85*v2 {
		t.Errorf("GCM 2q: SASPAR+Flink %.1f below 0.85x Flink %.1f", s2, v2)
	}
}

func TestMLAccuracyShape(t *testing.T) {
	rows, err := MLAccuracy(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d points", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.ErrorPct >= first.ErrorPct {
		t.Errorf("error did not fall with capacity: %.1f%% -> %.1f%%", first.ErrorPct, last.ErrorPct)
	}
	// The paper's claim: below 10% once enough splits accumulate.
	if last.ErrorPct >= 10 {
		t.Errorf("final error %.1f%%, want < 10%%", last.ErrorPct)
	}
	if first.ErrorPct <= 10 {
		t.Errorf("smallest model error %.1f%% already below 10%% — curve degenerate", first.ErrorPct)
	}
}

func TestAblationDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness")
	}
	r, err := AblationDedup(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// Four identical queries: dedup must cut per-tuple wire cost by
	// clearly more than 2x (ideal 4x minus the local share).
	if r.UnsharedMB < 2*r.SharedMB {
		t.Errorf("dedup saved too little: %.1f vs %.1f MB/Mtuple", r.SharedMB, r.UnsharedMB)
	}
}

func TestAblationModelRepair(t *testing.T) {
	r, err := AblationModelRepair()
	if err != nil {
		t.Fatal(err)
	}
	// The literal Eq. 4 plan can never beat the repaired-model plan
	// under the full cost.
	if r.LiteralObjective < r.RepairedObjective-1e-9 {
		t.Errorf("literal plan %.1f beat repaired plan %.1f under the full model", r.LiteralObjective, r.RepairedObjective)
	}
}

func TestAblationBoundsValid(t *testing.T) {
	rows, err := AblationBounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 bound rows, got %d", len(rows))
	}
	// Both are lower bounds of the same optimum, hence within it; the
	// combinatorial run here is exact so its bound equals the optimum
	// and dominates the LP bound.
	if rows[1].Value > rows[0].Value+1e-6 {
		t.Errorf("LP bound %.2f above the exact optimum %.2f", rows[1].Value, rows[0].Value)
	}
}

func TestAblationMLStats(t *testing.T) {
	r, err := AblationMLStats(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// Forest-fed plans must stay close to exact-stat plans (the whole
	// point of the ML substitution).
	if r.MLObjective > 1.25*r.ExactObjective {
		t.Errorf("ML-stat plan %.1f much worse than exact-stat plan %.1f", r.MLObjective, r.ExactObjective)
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var buf bytes.Buffer
	PrintFig6(&buf, []TPCHCell{{SUT: "Flink", Queries: 1, ThroughputMTps: 1}})
	PrintFig7(&buf, []TPCHCell{{SUT: "Flink", Queries: 1, LatencyMs: 5}})
	PrintFig8a(&buf, []Fig8Row{{Size: OptSize{4, 4, 4}, MIPMillis: 1, HeurMillis: 1}})
	PrintFig8b(&buf, []Fig8Row{{Size: OptSize{4, 4, 4}, Accuracy: 1}})
	PrintFig9(&buf, []Fig9Row{{SUT: "SASPAR+Flink", Partitions: 8, Queries: 1}})
	PrintFig10(&buf, []Fig10Row{{SUT: "Flink", Queries: 1}})
	PrintFig11(&buf, []Fig11Row{{IntervalUnits: 4, Queries: 5}})
	PrintFig12a(&buf, []Fig12aRow{{Queries: 5, ImpactPct: map[string]float64{}}})
	PrintFig12b(&buf, []Fig12bRow{{SUT: "SASPAR+Flink", Queries: 5}})
	PrintFig13(&buf, []Fig13Row{{SUT: "Flink", Queries: 1}})
	PrintML(&buf, []MLRow{{Trees: 1, Splits: 3, ErrorPct: 20}})
	if buf.Len() == 0 {
		t.Fatal("printers produced nothing")
	}
}

// TestBlockGenMatchesNext pins the strength-reduced NextBlock of the
// JSON snapshot's bench source to the scalar Next reference: identical
// value sequence, including across uneven block splits.
func TestBlockGenMatchesNext(t *testing.T) {
	row := &blockGen{i: 3*7919 + 1}
	bulk := &blockGen{i: 3*7919 + 1}
	const n = 96
	var blk engine.TupleBlock
	blk.Resize(n, 3)
	bulk.NextBlock(&blk, 0, 37)
	bulk.NextBlock(&blk, 37, n)
	var tu engine.Tuple
	for r := 0; r < n; r++ {
		row.Next(&tu, 0)
		for c := 0; c < 3; c++ {
			if blk.Col[c][r] != tu.Cols[c] {
				t.Fatalf("row %d col %d: NextBlock %d, Next %d", r, c, blk.Col[c][r], tu.Cols[c])
			}
		}
	}
	if bulk.i != row.i {
		t.Fatalf("cursor drift: NextBlock %d, Next %d", bulk.i, row.i)
	}
}

// TestMipSolveFixtureRunsIntoCap: the ledger's mip_solve entry divides
// time by explored nodes, so the fixture must end at its node cap —
// never early on a proven optimum, which would time set-up instead.
func TestMipSolveFixtureRunsIntoCap(t *testing.T) {
	in, opt := mipSolveFixture()
	res, err := mip.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Budget || res.Nodes <= opt.MaxNodes {
		t.Fatalf("fixture ended %v after %d nodes, want the %d-node cap", res.Status, res.Nodes, opt.MaxNodes)
	}
}
