package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// stat is one metric of one workload over the repetitions of a run.
type stat struct {
	value  float64 // the median of the repetitions
	q1, q3 float64 // quartiles of the per-repetition values
	n      int     // repetitions

	samples int // latencies: frames over all repetitions
}

// summary is one workload's run: the repetitions folded into one
// figure per metric.
type summary struct {
	workload  string
	attempted int
	failed    int
	errors    []string
	metrics   map[string]stat
}

func (s *summary) correct() bool { return s.failed == 0 && len(s.errors) == 0 }

// summarize folds the repetitions of one workload: every metric is the
// median of the repetitions. The four latencies, when asked for, are
// the median of each repetition's percentile, and refused unless the
// frames of all repetitions together support the percentile — a
// saturating repetition has a few hundred frames, too few for a p99 on
// its own, and one percentile over the pooled frames would be set by
// the worst repetition alone.
func summarize(workload string, reps []*repResult, latencies bool) *summary {
	s := &summary{workload: workload, metrics: map[string]stat{}}
	perRep := map[string][]float64{}
	var claim, closing [][]float64 // per repetition, ascending
	differ := false                // a virtual-time repetition disagreed with the first
	for i, r := range reps {
		s.attempted += r.Attempted
		s.failed += r.Failed
		for _, e := range r.Errors {
			s.errors = append(s.errors, fmt.Sprintf("repetition %d: %s", i+1, e))
		}
		for name, v := range r.Metrics {
			perRep[name] = append(perRep[name], v)
		}
		sort.Float64s(r.ClaimMs)
		sort.Float64s(r.CloseMs)
		claim = append(claim, r.ClaimMs)
		closing = append(closing, r.CloseMs)
		if r.Fingerprint != reps[0].Fingerprint {
			differ = true
			s.errors = append(s.errors, fmt.Sprintf("repetition %d: counts differ from repetition 1 (fingerprint %.12s vs %.12s)",
				i+1, r.Fingerprint, reps[0].Fingerprint))
		}
	}
	if differ || s.failed > s.attempted {
		s.failed = s.attempted
	}
	for name, vs := range perRep {
		q1, q3 := quartiles(vs)
		s.metrics[name] = stat{value: median(vs), q1: q1, q3: q3, n: len(vs)}
	}
	if !latencies {
		return s
	}
	for _, l := range []struct {
		prefix string
		reps   [][]float64
	}{{"claim_lat", claim}, {"close_lat", closing}} {
		pooled := 0
		for _, r := range l.reps {
			pooled += len(r)
		}
		for _, p := range []float64{50, 99} {
			name := fmt.Sprintf("%s_p%.0f_ms", l.prefix, p)
			if err := supports(pooled, p); err != nil {
				s.errors = append(s.errors, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			var vs []float64
			for _, r := range l.reps {
				if len(r) > 0 {
					vs = append(vs, r[rank(len(r), p)])
				}
			}
			q1, q3 := quartiles(vs)
			s.metrics[name] = stat{value: median(vs), q1: q1, q3: q3, n: len(vs), samples: pooled}
		}
	}
	return s
}

// print writes the workload's metrics by name with unit, quartiles and
// sample count.
func (s *summary) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\n%s — %s\n", s.workload, workloadWhy[s.workload])
	fmt.Fprintf(w, "  frames attempted %d, failed %d\n", s.attempted, s.failed)
	for _, e := range s.errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	for _, d := range defs {
		st, ok := s.metrics[d.name]
		if !ok {
			continue
		}
		spread := ""
		if st.n > 1 {
			spread = fmt.Sprintf("quartiles %.6g – %.6g over %d repetitions", st.q1, st.q3, st.n)
		}
		if st.samples > 0 {
			spread += fmt.Sprintf(", %d frames", st.samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-9s %s\n", d.name, st.value, d.unit, spread)
	}
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the metrics in defs; a metric the workload does not have
// reads 0.
func (s *summary) line(defs []metricDef) string {
	out := resultLine{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: s.metrics[d.name].value, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can fail here; both are bugs.
		panic(err)
	}
	return string(b)
}

// compare checks a second run of identical code against the first:
// every end-to-end metric of every workload must agree within its
// bound. It returns whether all did.
func compare(w io.Writer, first, second []*summary) bool {
	ok := true
	fmt.Fprintf(w, "\n%-10s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "")
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			x, y := a.metrics[d.name].value, b.metrics[d.name].value
			diff := math.Abs(y-x) / x
			verdict := "pass"
			if !(diff <= d.bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %7.2f%% %5.0f%%  %s\n",
				a.workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		if !a.correct() || !b.correct() {
			fmt.Fprintf(w, "%-10s %s\n", a.workload, "FAIL: "+strings.Join(append(a.errors, b.errors...), "; "))
			ok = false
		}
	}
	return ok
}
