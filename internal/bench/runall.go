package bench

import (
	"fmt"
	"io"
)

// Section is one figure of the paper's evaluation: the name cmd/figures
// selects it by, the title RunAll prints above it, and the harness run
// that writes its tables. WallClock marks the sections whose bodies are
// not deterministic between ANY two runs, sequential or not: Figure 8
// prints measured solver wall clock (and its budget-capped accuracy
// column depends on it), and Figure 12a attributes optimizations to
// cascade steps under a real CPU budget.
type Section struct {
	Fig, Title string
	WallClock  bool
	Run        func(io.Writer) error
}

// section pairs a harness with the printer of its rows.
func section[T any](fig, title string, run func() (T, error), print func(io.Writer, T)) Section {
	return Section{Fig: fig, Title: title, Run: func(w io.Writer) error {
		rows, err := run()
		if err != nil {
			return err
		}
		print(w, rows)
		return nil
	}}
}

func (s Section) wallClock() Section {
	s.WallClock = true
	return s
}

// Sections lists the paper's figures at scale sc, in paper order.
func Sections(sc Scale) []Section {
	// Figure 7 is the latency column of Figure 6's cells: whoever runs
	// both runs the grid once.
	var cells []TPCHCell
	fig6 := func() ([]TPCHCell, error) {
		if cells != nil {
			return cells, nil
		}
		var err error
		cells, err = Fig6(sc)
		return cells, err
	}
	return []Section{
		section("6", "Figure 6: overall throughput, TPC-H workload", fig6, PrintFig6),
		section("7", "Figure 7: average event-time latency, TPC-H workload", fig6, PrintFig7),
		section("8", "Figure 8a/8b: optimizer runtime and accuracy",
			func() ([]Fig8Row, error) { return Fig8(sc) },
			func(w io.Writer, rows []Fig8Row) {
				PrintFig8a(w, rows)
				fmt.Fprintln(w)
				PrintFig8b(w, rows)
			}).wallClock(),
		section("9", "Figure 9: tuples reshuffled to source operators",
			func() ([]Fig9Row, error) { return Fig9(sc) }, PrintFig9),
		section("10", "Figure 10: overall throughput, AJoin workload",
			func() ([]Fig10Row, error) { return Fig10(sc) }, PrintFig10),
		section("11", "Figure 11: SASPAR+Flink throughput vs optimizer trigger interval",
			func() ([]Fig11Row, error) { return Fig11(sc) }, PrintFig11),
		section("12a", "Figure 12a: heuristic impact breakdown",
			func() ([]Fig12aRow, error) { return Fig12a(sc) }, PrintFig12a).wallClock(),
		section("12b", "Figure 12b: JIT compilation overhead",
			func() ([]Fig12bRow, error) { return Fig12b(sc) }, PrintFig12b),
		section("13", "Figure 13: overall throughput, GCM workload",
			func() ([]Fig13Row, error) { return Fig13(sc) }, PrintFig13),
		section("ml", "ML microbenchmark: SharedWith prediction error vs splits",
			func() ([]MLRow, error) { return MLAccuracy(sc) }, PrintML),
	}
}

// runSections writes each section under its title.
func runSections(w io.Writer, sections []Section) error {
	for _, s := range sections {
		fmt.Fprintf(w, "\n== %s ==\n", s.Title)
		if err := s.Run(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every figure harness and writes the tables to w in
// paper order. cmd/figures uses it to regenerate EXPERIMENTS.md's
// measured columns.
func RunAll(sc Scale, w io.Writer) error { return runSections(w, Sections(sc)) }
