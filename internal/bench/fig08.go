package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"saspar/internal/optimizer"
	"saspar/internal/parallel"
)

// OptSize is one x-axis point of Figure 8: a workload shape "aq bp cg"
// (a queries, b partitions, c key groups).
type OptSize struct {
	Queries    int
	Partitions int
	Groups     int
}

func (s OptSize) String() string {
	return fmt.Sprintf("%dq %dp %dg", s.Queries, s.Partitions, s.Groups)
}

// Fig8Sizes is the paper's full size ladder.
func Fig8Sizes(full bool) []OptSize {
	sizes := []OptSize{
		{4, 4, 4}, {4, 4, 8}, {4, 4, 16}, {4, 4, 32}, {4, 4, 64},
		{4, 8, 64}, {4, 16, 64}, {4, 32, 64}, {4, 64, 64},
		{8, 64, 64}, {14, 64, 64},
	}
	if full {
		sizes = append(sizes,
			OptSize{14, 128, 128}, OptSize{14, 256, 256},
			OptSize{14, 512, 512}, OptSize{14, 1024, 1024})
	}
	return sizes
}

// Fig8Row is one measurement: the raw-MIP and MIP+Heuristics
// optimization times (Fig. 8a) and the heuristic accuracy relative to
// the MIP objective (Fig. 8b).
type Fig8Row struct {
	Size OptSize

	MIPMillis  float64
	MIPCapped  bool // the MIP reference hit its budget (the paper "stopped evaluating")
	HeurMillis float64

	// Accuracy is mipObjective / heuristicObjective in (0, 1]; 1 means
	// the heuristics matched the (possibly budget-capped) MIP result.
	Accuracy float64
}

// synthRequest builds a reproducible optimizer request of the given
// shape: skewed cardinalities, partially aligned sharing.
func synthRequest(size OptSize, seed int64) *optimizer.Request {
	rng := rand.New(rand.NewSource(seed))
	req := &optimizer.Request{
		NumPartitions: size.Partitions,
		NumGroups:     size.Groups,
		NumStreams:    1,
		LocalFrac:     make([]float64, size.Partitions),
		LatNet:        1.0,
		LatMem:        0.02,
		LatProc:       0.4,
	}
	for p := range req.LocalFrac {
		req.LocalFrac[p] = 0.125
	}
	for q := 0; q < size.Queries; q++ {
		in := optimizer.InputStats{
			Stream: 0,
			Card:   make([]float64, size.Groups),
			SW:     make([]float64, size.Groups),
		}
		for g := 0; g < size.Groups; g++ {
			in.Card[g] = float64(rng.Intn(190) + 10)
			in.SW[g] = rng.Float64()
		}
		req.Queries = append(req.Queries, optimizer.QueryStats{ID: fmt.Sprintf("q%d", q), Weight: 1, Inputs: []optimizer.InputStats{in}})
	}
	return req
}

// Fig8 reproduces Figures 8a and 8b: optimization time of the MIP vs
// MIP+Heuristics optimizer, and the heuristic accuracy, across the
// size ladder. The MIP reference runs under sc.MIPCap — the analogue
// of the paper stopping the MIP series once runtimes exploded.
func Fig8(sc Scale) ([]Fig8Row, error) {
	sizes := Fig8Sizes(sc.Full)
	// Submitted through the serial pool: this figure *measures* real
	// wall clock per solver call, so its cells must own the machine —
	// concurrent cells would inflate every measured time.
	rows, err := parallel.Map(serialPool(), len(sizes), func(i int) (Fig8Row, error) {
		size := sizes[i]
		req := synthRequest(size, 42)

		mipStart := time.Now()
		mipRes, err := optimizer.Optimize(req, optimizer.Options{MIPOnly: true, Timeout: sc.MIPCap})
		if err != nil {
			return Fig8Row{}, err
		}
		mipMs := float64(time.Since(mipStart).Microseconds()) / 1000

		heurStart := time.Now()
		heurRes, err := optimizer.Optimize(req, optimizer.Options{Timeout: sc.OptTimeout})
		if err != nil {
			return Fig8Row{}, err
		}
		heurMs := float64(time.Since(heurStart).Microseconds()) / 1000

		acc := mipRes.Objective / heurRes.Objective
		if acc > 1 {
			acc = 1 // heuristics beat the budget-capped MIP incumbent
		}
		return Fig8Row{
			Size:       size,
			MIPMillis:  mipMs,
			MIPCapped:  !mipRes.Exact,
			HeurMillis: heurMs,
			Accuracy:   acc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintFig8a renders the optimization-time series.
func PrintFig8a(w io.Writer, rows []Fig8Row) {
	var out []string
	for _, r := range rows {
		capped := ""
		if r.MIPCapped {
			capped = " (budget)"
		}
		out = append(out, fmt.Sprintf("%s\t%.1f%s\t%.1f", r.Size, r.MIPMillis, capped, r.HeurMillis))
	}
	table(w, "size\tMIP (ms)\tMIP+Heuristics (ms)", out)
}

// PrintFig8b renders the accuracy series.
func PrintFig8b(w io.Writer, rows []Fig8Row) {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s\t%.3f", r.Size, r.Accuracy))
	}
	table(w, "size\taccuracy (MIP obj / heuristic obj)", out)
}
