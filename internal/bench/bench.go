// Package bench contains one harness per table/figure of the paper's
// evaluation (Section V). Every harness regenerates the same rows or
// series the paper plots — six systems under test, the same x-axes,
// the same metrics — over the simulated cluster. Absolute numbers
// differ from the authors' 8-node testbed (the substrate is a
// simulator; see DESIGN.md), but the comparative shapes are the
// reproduction target and are asserted in bench_shape_test.go.
//
// Each harness accepts a Scale: Quick() sizes runs for CI-speed
// regression (seconds of wall time), Paper() approaches the paper's
// dimensions (32–64 partitions, 128+ key groups, 3 repetitions).
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"saspar/internal/core"
	"saspar/internal/driver"
	"saspar/internal/engine"
	"saspar/internal/optimizer"
	"saspar/internal/parallel"
	"saspar/internal/spe"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

// Scale sizes every experiment.
type Scale struct {
	Nodes       int
	Partitions  int
	Groups      int
	SourceTasks int
	TupleWeight float64

	// TimeUnit is what the paper's "1 minute" maps to in virtual time;
	// windows, trigger intervals and drift periods derive from it.
	TimeUnit vtime.Duration

	Warmup  vtime.Duration
	Measure vtime.Duration
	Reps    int

	// OptTimeout is the MIP time budget (the paper uses 4 s).
	OptTimeout time.Duration
	// MIPCap bounds the raw-MIP reference runs of Fig. 8 so the
	// exponential series terminates.
	MIPCap time.Duration

	// Rate is the offered per-stream rate in modelled tuples/s — set
	// beyond capacity so backpressure finds the sustainable point.
	Rate float64

	// Workers bounds the run-matrix pool the harnesses fan their cells
	// over. 0 defers to the SASPAR_PARALLEL environment variable, then
	// runtime.GOMAXPROCS; 1 forces the historical sequential loops.
	// Cell results are reassembled in grid order either way, so harness
	// output is identical at any worker count.
	Workers int

	// Batch is the engine's generation block size
	// (engine.Config.BatchSize): how many tuples the columnar data plane
	// carries per block on the source → router → slot hot path. Purely an
	// execution blocking factor — results are byte-identical at every
	// value (the batch-axis determinism tests enforce it), so like
	// Workers it trades wall clock only. 0 means the engine
	// default of 64; 1 forces tuple-at-a-time execution.
	Batch int

	// DeterministicOpt runs every in-cell optimization under
	// optimizer.Options.DeterministicBudget: node caps instead of wall
	// clock, so cell results are bit-reproducible regardless of machine
	// speed or concurrent cells. The parallel-equivalence test runs
	// with this on; the default (off) mirrors the paper's real time
	// budget.
	DeterministicOpt bool

	Full bool
}

// Quick returns the CI-speed scale.
func Quick() Scale {
	return Scale{
		Nodes:       4,
		Partitions:  8,
		Groups:      32,
		SourceTasks: 4,
		TupleWeight: 500,
		TimeUnit:    2 * vtime.Second,
		Warmup:      10 * vtime.Second,
		Measure:     10 * vtime.Second,
		Reps:        1,
		OptTimeout:  150 * time.Millisecond,
		MIPCap:      400 * time.Millisecond,
		Rate:        40e6,
	}
}

// Paper returns the paper-shaped scale (longer wall time).
func Paper() Scale {
	return Scale{
		Nodes:       8,
		Partitions:  32,
		Groups:      128,
		SourceTasks: 8,
		TupleWeight: 2000,
		TimeUnit:    10 * vtime.Second,
		Warmup:      60 * vtime.Second,
		Measure:     120 * vtime.Second,
		Reps:        3,
		OptTimeout:  4 * time.Second,
		MIPCap:      8 * time.Second,
		Rate:        60e6,
		Full:        true,
	}
}

// pool returns the run-matrix pool sized by the Workers knob. Every
// harness whose cells measure virtual-time metrics submits through it;
// each cell builds its own engine, cluster and network, so cells share
// nothing but read-only inputs. Harnesses that measure real wall clock
// (Fig. 8, Fig. 12a, the solver ablations) use serialPool instead.
func (sc Scale) pool() *parallel.Pool { return parallel.New(sc.Workers) }

// serialPool runs cells one at a time through the same submission API.
// Wall-clock-budget measurements (optimizer/MIP timings) must not share
// the machine with concurrent cells: contention would inflate measured
// times and shift budget-dependent outcomes.
func serialPool() *parallel.Pool { return parallel.New(1) }

// engineConfig derives the engine configuration from the scale.
func (sc Scale) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Nodes = sc.Nodes
	cfg.NumPartitions = sc.Partitions
	cfg.NumGroups = sc.Groups
	cfg.SourceTasks = sc.SourceTasks
	cfg.TupleWeight = sc.TupleWeight
	cfg.BatchSize = sc.Batch
	return cfg
}

// coreConfig derives the SASPAR layer configuration.
func (sc Scale) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TriggerInterval = 4 * sc.TimeUnit // the paper's best interval (Fig. 11)
	cfg.Opt = optimizer.Options{Timeout: sc.OptTimeout, MaxNodes: 200000}
	if sc.DeterministicOpt {
		cfg.Opt.DeterministicBudget = true
		// A tighter node cap keeps deterministic runs near the wall
		// clock the real budget would allow at quick scale.
		cfg.Opt.MaxNodes = 50000
	}
	return cfg
}

// window is the report window every workload query uses.
func (sc Scale) window() engine.WindowSpec {
	return engine.WindowSpec{Range: 2 * sc.TimeUnit, Slide: 2 * sc.TimeUnit}
}

// runSUT executes one (SUT, workload) cell through the driver.
func runSUT(sc Scale, sut spe.SUT, w *workload.Workload, mutate func(*engine.Config, *core.Config)) (*driver.Result, error) {
	engCfg := sc.engineConfig()
	coreCfg := sc.coreConfig()
	if mutate != nil {
		mutate(&engCfg, &coreCfg)
	}
	return driver.Run(driver.Config{
		SUT:         sut,
		Workload:    w,
		Engine:      engCfg,
		Core:        coreCfg,
		Warmup:      sc.Warmup,
		Measure:     sc.Measure,
		Repetitions: sc.Reps,
	})
}

// runDriverRaw is runSUT with explicit configs and phases (for
// harnesses that vary the trigger interval or run length per cell).
func runDriverRaw(sut spe.SUT, w *workload.Workload, engCfg engine.Config, coreCfg core.Config,
	warmup, measure vtime.Duration, reps int) (*driver.Result, error) {
	return driver.Run(driver.Config{
		SUT:         sut,
		Workload:    w,
		Engine:      engCfg,
		Core:        coreCfg,
		Warmup:      warmup,
		Measure:     measure,
		Repetitions: reps,
	})
}

// table prints rows with a header through a tabwriter.
func table(w io.Writer, header string, rows []string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		fmt.Fprintln(tw, r)
	}
	tw.Flush()
}

func ms(d vtime.Duration) float64 { return float64(d) / float64(vtime.Millisecond) }
