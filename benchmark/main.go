// Command benchmark is the repository's benchmark: four workloads that
// split serving, state, the control plane and the virtual-time path,
// measured so that the numbers repeat. README.md has the tables.
//
//	go run . -workload mix-sat -seed 1            end-to-end metrics of one workload
//	go run . -workload all                        every workload, repetitions interleaved
//	go run . -workload agg-open -trace 1          per-layer metrics and the span file
//	go run . -selfcheck                           two sets of identical code, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart is when this process started, near enough: set-up time of
// a repetition counts from here.
var procStart = time.Now()

// reps is the number of repetitions per workload, one process each.
const reps = 6

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: mix-sat, gcm-sat, agg-open, virt-tpch or all")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 18, "measured seconds per workload, split evenly over the repetitions")
		trace     = flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics instead")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice and compare the medians against the bounds")
		child     = flag.String("child", "", "internal: run one repetition (rep) or one traced replay (replay) and print its result")
		pass      = flag.Float64("pass", 0, "internal: measured seconds of the child's pass")
		outDir    = flag.String("out", "out", "directory the traced run writes <workload>.trace.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *child != "" {
		if err := runChild(*child, *workload, *seed, *pass, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g reps=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, reps)
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	names := workloadNames
	if *workload != "all" {
		if _, ok := workloadWhy[*workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q (have %v and all)", *workload, workloadNames))
		}
		names = []string{*workload}
	}
	r := runner{exe: exe, seed: *seed, pass: *seconds / reps, outDir: *outDir}
	switch {
	case *selfcheck:
		first, err := r.endToEnd(names)
		if err != nil {
			fatal(err)
		}
		second, err := r.endToEnd(names)
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, first, second) {
			os.Exit(1)
		}
	case *trace == 1:
		sums, err := r.traced(names)
		if err != nil {
			fatal(err)
		}
		finish(sums, perLayer, *workload == "all")
	default:
		sums, err := r.endToEnd(names)
		if err != nil {
			fatal(err)
		}
		finish(sums, endToEnd, *workload == "all")
	}
}

// finish prints the summaries and the machine-readable result as the
// last line, and exits non-zero when any output was wrong.
func finish(sums []*summary, defs []metricDef, named bool) {
	ok := true
	for _, s := range sums {
		s.print(os.Stdout, defs)
		ok = ok && s.correct()
	}
	fmt.Println()
	for _, s := range sums {
		if named {
			fmt.Printf("%s ", s.workload)
		}
		fmt.Println(s.line(defs))
	}
	if !ok {
		os.Exit(1)
	}
}

// runner starts the repetitions: one operating-system process each, so
// no repetition inherits the heap, the page cache of the allocator or
// the goroutines of the one before.
type runner struct {
	exe  string
	seed int64
	pass float64 // measured seconds of one repetition

	outDir string
}

// endToEnd runs reps repetitions of every named workload with tracing
// off. Repetitions are interleaved round-robin across the workloads so
// that each median samples the whole run, not one noisy minute.
func (r runner) endToEnd(names []string) ([]*summary, error) {
	results := map[string][]*repResult{}
	for i := 0; i < reps; i++ {
		for _, name := range names {
			res, err := r.spawn("rep", name)
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", name, i+1, err)
			}
			fmt.Printf("  %s repetition %d/%d: %.0f rows/s, set-up %.3f s, peak RSS %.0f MB, %d failed\n",
				name, i+1, reps, res.Metrics["rows_per_s"], res.Metrics["setup_s"], res.Metrics["peak_rss_mb"], res.Failed)
			results[name] = append(results[name], res)
		}
	}
	var sums []*summary
	for _, name := range names {
		sums = append(sums, summarize(name, results[name], true))
	}
	return sums, nil
}

// traced runs, per workload, one end-to-end repetition — the per-layer
// metrics read from outside come from it, with tracing off — and then
// the traced replay, and folds the two into one summary.
func (r runner) traced(names []string) ([]*summary, error) {
	var sums []*summary
	for _, name := range names {
		rep, err := r.spawn("rep", name)
		if err != nil {
			return nil, fmt.Errorf("%s repetition: %w", name, err)
		}
		replay, err := r.spawn("replay", name)
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", name, err)
		}
		fmt.Printf("  %s: end to end %.0f rows/s, traced replay %.0f rows/s\n",
			name, rep.Metrics["rows_per_s"], replay.Metrics["replay.rows_per_s"])
		s := summarize(name, []*repResult{rep}, false)
		s.attempted += replay.Attempted
		s.failed += replay.Failed
		s.errors = append(s.errors, replay.Errors...)
		for m, v := range replay.Metrics {
			s.metrics[m] = stat{value: v, q1: v, q3: v, n: 1}
		}
		sums = append(sums, s)
	}
	return sums, nil
}

// spawn runs one child to completion and decodes the result on the
// last line of its output.
func (r runner) spawn(kind, workload string) (*repResult, error) {
	cmd := exec.Command(r.exe, "-child", kind, "-workload", workload,
		"-seed", strconv.FormatInt(r.seed, 10), "-pass", strconv.FormatFloat(r.pass, 'g', -1, 64), "-out", r.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l) // what the child had to say before its result
	}
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// runChild is one repetition in its own process: it prints a repResult
// as the last line of its output.
func runChild(kind, workload string, seed int64, passSeconds float64, outDir string) error {
	if passSeconds <= 0 {
		return fmt.Errorf("-child needs a positive -pass")
	}
	var res *repResult
	var err error
	switch {
	case kind == "rep" && workload == wlVirtTpch:
		res, err = runVirt(seed, sizeVirt(passSeconds, virtTick), procStart)
	case kind == "rep":
		var spec *serveSpec
		if spec, err = newServeSpec(workload); err == nil {
			res, err = runServe(spec, seed, sizeServe(spec, passSeconds), serveOpts{}, procStart)
		}
	case kind == "replay" && workload == wlVirtTpch:
		res, err = replayVirt(seed, sizeVirt(passSeconds, virtTick), outDir)
	case kind == "replay":
		var spec *serveSpec
		if spec, err = newServeSpec(workload); err == nil {
			res, err = replayServe(spec, seed, sizeServe(spec, passSeconds), outDir)
		}
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
