// Command figures regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	figures [-full] [-fig N] [-workers N] [-batch N] [-bench-json FILE]
//
// Without flags it runs the quick scale (seconds of wall time per
// figure); -full approaches the paper's dimensions. -fig selects one
// figure ("6", "7", "8", "9", "10", "11", "12a", "12b", "13", "ml",
// "recovery", "ckpt-recovery", "elastic", "migration" — the last four
// are the crash-recovery, checkpointed-recovery, elastic flash-crowd,
// and staged-versus-pause migration experiments, which are not part of
// the paper's figure set and therefore not included in the default
// run).
// -workers bounds the run-matrix pool the harnesses fan cells over
// (0 = SASPAR_PARALLEL env, then GOMAXPROCS; 1 = sequential); output
// is identical at any worker count. Each cell's engine fans its large
// ticks over whatever tokens the pool left in the shared budget
// (internal/parallel); output is byte-identical either way. -batch
// sets the engine's generation block size
// (engine.Config.BatchSize, default 64; 1 = tuple-at-a-time): a pure
// execution knob of the columnar data plane, byte-identical output at
// any value. -bench-json measures a performance
// snapshot — engine tick cost, optimizer kernels and the deterministic
// scenario figures — and writes it to FILE instead of running figures.
// -bench-compare re-measures only engine_step, engine_run and mip_solve
// (best of three) and fails if an engine_step mode or mip_solve
// regressed more than -bench-tolerance percent against the committed
// baseline FILE, or an engine_run auto arm is that far behind the better
// pinned arm of its fixture; scripts/bench_compare.sh is the CI entry
// point.
package main

import (
	"flag"
	"fmt"
	"os"

	"saspar/internal/bench"
	"saspar/internal/cliflags"
)

func main() {
	var cf cliflags.Common
	full := flag.Bool("full", false, "run at paper scale (slow)")
	fig := flag.String("fig", "", "run a single figure (6,7,8,9,10,11,12a,12b,13,ml,recovery,ckpt-recovery,greedy,elastic,migration)")
	benchJSON := flag.String("bench-json", "", "write a performance snapshot to this file and exit")
	benchCompare := flag.String("bench-compare", "", "compare current engine_step and mip_solve cost against this committed BENCH_*.json, and engine_run auto against its pinned arms, and exit non-zero on regression")
	benchTol := flag.Float64("bench-tolerance", 25, "ns/op regression tolerance for -bench-compare, percent")
	cf.Register(flag.CommandLine)
	cf.RegisterWorkers(flag.CommandLine)
	flag.Parse()
	if err := cf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	sc := bench.Quick()
	if *full {
		sc = bench.Paper()
	}
	sc.Workers = cf.Workers
	sc.Batch = cf.Batch

	if *benchCompare != "" {
		if err := compareBench(sc, *benchCompare, *benchTol); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := emitBenchJSON(sc, *benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(sc, *fig); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func emitBenchJSON(sc bench.Scale, path string) error {
	rep, err := bench.CollectBenchReport(sc)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compareBench(sc bench.Scale, baselinePath string, tolPct float64) error {
	f, err := os.Open(baselinePath)
	if err != nil {
		return err
	}
	base, err := bench.ReadBenchReport(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	cur, err := bench.CollectStepReport(sc, 3)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s (tolerance %.0f%%)\n", baselinePath, tolPct)
	return bench.CompareEngineStep(os.Stdout, cur, base, tolPct)
}

func run(sc bench.Scale, fig string) error {
	w := os.Stdout
	if fig == "" {
		return bench.RunAll(sc, w)
	}
	for _, sec := range bench.Sections(sc) {
		if sec.Fig == fig {
			return sec.Run(w)
		}
	}
	switch fig {
	case "greedy":
		rows, err := bench.Greedy(sc)
		if err != nil {
			return err
		}
		bench.PrintGreedy(w, rows)
	case "ml":
		rows, err := bench.MLAccuracy(sc)
		if err != nil {
			return err
		}
		bench.PrintML(w, rows)
	case "recovery":
		rows, err := bench.Recovery(sc, 3)
		if err != nil {
			return err
		}
		bench.PrintRecovery(w, rows)
	case "ckpt-recovery":
		rows, err := bench.CkptRecovery(sc, 3)
		if err != nil {
			return err
		}
		bench.PrintCkptRecovery(w, rows)
	case "elastic":
		rows, err := bench.Elastic(sc)
		if err != nil {
			return err
		}
		bench.PrintElastic(w, rows)
	case "migration":
		rows, err := bench.Migration(sc)
		if err != nil {
			return err
		}
		bench.PrintMigration(w, rows)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
