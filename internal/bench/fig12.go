package bench

import (
	"fmt"
	"io"

	"saspar/internal/core"
	"saspar/internal/engine"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/spe"
)

// Fig12aRow is the heuristic-impact breakdown for one query count: the
// share of optimizer-runtime saving each heuristic contributes,
// measured by removing it (the paper's ablation).
type Fig12aRow struct {
	Queries int
	// ImpactPct maps heuristic name → percentage of the total impact.
	ImpactPct map[string]float64
}

// Fig12aHeuristics lists the ablated heuristics in the paper's legend
// order.
func Fig12aHeuristics() []string {
	return []string{
		optimizer.HeurOptGap,
		optimizer.HeurMergeKeys,
		optimizer.HeurTreeOpt,
		optimizer.HeurHybridExec,
		optimizer.HeurMergePar,
	}
}

// Fig12a reproduces Figure 12a: the share of optimizations each
// heuristic carries — i.e. how often it is the cascade step that
// finally produces an acceptable plan — per query count, over a batch
// of statistics instances. (The paper ablates heuristics one at a
// time; success-point attribution measures the same quantity — "which
// heuristic the optimizer could not have done without" — and is robust
// to wall-clock noise.) Instance dimensions grow with the query
// population, pushing the success point toward the later, structural
// heuristics, the paper's reported trend.
func Fig12a(sc Scale) ([]Fig12aRow, error) {
	counts := []int{5, 20, 100, 200, 500}
	if !sc.Full {
		counts = []int{5, 20, 100}
	}
	// Submitted through the serial pool: each Optimize call runs under a
	// wall-clock budget (sc.OptTimeout), and the cascade's success point
	// depends on how much real CPU that budget buys. Concurrent cells
	// would contend for cores and shift the attribution being measured.
	rows, err := parallel.Map(serialPool(), len(counts), func(ci int) (Fig12aRow, error) {
		n := counts[ci]
		scaleUp := 1
		for s := n; s >= 20; s /= 5 {
			scaleUp *= 2
		}
		tally := map[string]float64{}
		const seeds = 6
		for seed := int64(0); seed < seeds; seed++ {
			req := synthRequest(OptSize{
				Queries:    n,
				Partitions: sc.Partitions * 2 * scaleUp,
				Groups:     sc.Groups * scaleUp,
			}, int64(n)*100+seed)
			res, err := optimizer.Optimize(req, optimizer.Options{Timeout: sc.OptTimeout})
			if err != nil {
				return Fig12aRow{}, err
			}
			tally[successHeuristic(res)]++
		}
		row := Fig12aRow{Queries: n, ImpactPct: map[string]float64{}}
		for h, c := range tally {
			row.ImpactPct[h] = 100 * c / seeds
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// successHeuristic attributes an optimization to the cascade step that
// produced its accepted plan; full-model successes and exhausted
// cascades are the gap/budget pair's credit.
func successHeuristic(res *optimizer.Result) string {
	if res.SucceededVia == "" {
		return optimizer.HeurOptGap
	}
	return res.SucceededVia
}

// PrintFig12a renders the breakdown.
func PrintFig12a(w io.Writer, rows []Fig12aRow) {
	header := "queries"
	for _, h := range Fig12aHeuristics() {
		header += "\t" + h + " (%)"
	}
	var out []string
	for _, r := range rows {
		line := fmt.Sprintf("%d", r.Queries)
		for _, h := range Fig12aHeuristics() {
			line += fmt.Sprintf("\t%.1f", r.ImpactPct[h])
		}
		out = append(out, line)
	}
	table(w, header, out)
}

// Fig12bRow is the JIT-compilation overhead on event-time latency for
// one SASPAR-ed SUT at one query count.
type Fig12bRow struct {
	SUT         string
	Queries     int
	OverheadPct float64
	Compiles    float64
}

// Fig12b reproduces Figure 12b: each cell runs the drifting AJoin
// workload twice — with the real JIT compilation cost and with it set
// to zero — and reports the latency difference as a percentage.
func Fig12b(sc Scale) ([]Fig12bRow, error) {
	counts := []int{5, 20, 100, 500}
	if !sc.Full {
		counts = []int{5, 20, 100}
	}
	type cellSpec struct {
		n    int
		kind spe.Kind
	}
	var specs []cellSpec
	for _, n := range counts {
		for _, kind := range spe.Kinds() {
			specs = append(specs, cellSpec{n, kind})
		}
	}
	// The with/without-JIT pair stays inside one cell: the pair is the
	// measurement, its two runs are not independent work.
	return parallel.Map(sc.pool(), len(specs), func(i int) (Fig12bRow, error) {
		s := specs[i]
		w, err := ajoinWorkload(sc, s.n, 6*sc.TimeUnit)
		if err != nil {
			return Fig12bRow{}, err
		}
		sut := spe.SUT{Kind: s.kind, Saspar: true}
		run := func(compile bool) (latMs float64, compiles float64, err error) {
			res, err := runSUT(sc, sut, w, func(e *engine.Config, c *core.Config) {
				if !compile {
					e.Cost.CompileCost = 0
				}
				c.PlanHorizon = 4
				c.MinImprovement = 0.001
				c.TriggerInterval = 2 * sc.TimeUnit
			})
			if err != nil {
				return 0, 0, err
			}
			return ms(res.AvgLatency), res.JITCompiles, nil
		}
		withJIT, compiles, err := run(true)
		if err != nil {
			return Fig12bRow{}, fmt.Errorf("bench: fig12b %s %dq: %w", sut.Name(), s.n, err)
		}
		withoutJIT, _, err := run(false)
		if err != nil {
			return Fig12bRow{}, err
		}
		pct := 0.0
		if withJIT > 0 {
			pct = 100 * (withJIT - withoutJIT) / withJIT
		}
		if pct < 0 {
			pct = 0
		}
		return Fig12bRow{SUT: sut.Name(), Queries: s.n, OverheadPct: pct, Compiles: compiles}, nil
	})
}

// PrintFig12b renders the JIT-overhead table.
func PrintFig12b(w io.Writer, rows []Fig12bRow) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s\t%d\t%.1f\t%.0f", r.SUT, r.Queries, r.OverheadPct, r.Compiles))
	}
	table(w, "SUT\tqueries\tJIT overhead (%)\tcompiles", out)
}
