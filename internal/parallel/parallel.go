// Package parallel is the run-matrix layer under the figure harnesses.
//
// Every experiment in the paper's evaluation is a grid of independent
// cells — one (SUT, workload, configuration, seed) tuple per cell —
// and each cell builds its own engine, cluster and network models, so
// nothing is shared between cells but read-only inputs. This package
// fans such grids out over a bounded worker pool and reassembles the
// results in cell-index order, which keeps harness output byte-for-byte
// identical to the historical sequential loops (asserted by
// TestParallelEquivalence in internal/bench).
//
// Worker count resolution, in priority order:
//  1. an explicit count passed to New (a Scale.Workers knob, a
//     -workers flag),
//  2. the SASPAR_PARALLEL environment variable,
//  3. runtime.GOMAXPROCS(0).
//
// A SASPAR_PARALLEL value that is not a positive integer is surfaced as
// an error by ResolveWorkers (Workers warns on stderr) and then falls
// back to GOMAXPROCS — an operator's explicit setting is never ignored
// silently.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvVar overrides the default worker count when set to a positive
// integer. SASPAR_PARALLEL=1 forces sequential in-line execution.
const EnvVar = "SASPAR_PARALLEL"

// ResolveWorkers resolves the default worker count: EnvVar when set to
// a positive integer, else runtime.GOMAXPROCS(0). An EnvVar value that
// is not a positive integer (0, a negative, garbage) is an operator
// error: ResolveWorkers still returns the GOMAXPROCS fallback so
// callers can proceed, but reports it instead of silently ignoring the
// explicit setting.
func ResolveWorkers() (int, error) {
	v := os.Getenv(EnvVar)
	if v == "" {
		return runtime.GOMAXPROCS(0), nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return runtime.GOMAXPROCS(0), fmt.Errorf(
			"parallel: invalid %s=%q (want a positive integer); falling back to GOMAXPROCS=%d",
			EnvVar, v, runtime.GOMAXPROCS(0))
	}
	return n, nil
}

// Workers resolves the default worker count like ResolveWorkers, but
// warns on stderr (documented fallback) instead of returning the error
// — the convenience form for harness entry points.
func Workers() int {
	n, err := ResolveWorkers()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	return n
}

// The process-wide worker-token budget. Two parallelism layers draw
// from it — the run-matrix pools below and the engine's per-tick
// phase workers (internal/engine, shard.go) — so matrix workers times
// tick workers per run can never oversubscribe the host. Every
// consumer owns one implicit token for its calling goroutine and
// acquires only the extras, which makes the grant advisory: a zero
// grant degrades to sequential execution, never deadlock. Results are unaffected by
// construction — both layers are worker-count invariant.
var (
	budgetMu  sync.Mutex
	budgetCap = -1 // extra tokens; -1 = unset, resolve lazily to Workers()-1
	budgetUse int
)

func budgetLimit() int {
	if budgetCap < 0 {
		budgetCap = Workers() - 1
		if budgetCap < 0 {
			budgetCap = 0
		}
	}
	return budgetCap
}

// SetBudget sets the process-wide extra-worker token cap; n < 0
// resets to the default (Workers()-1). 0 is legitimate and forces
// every consumer sequential. Intended for tests and harness entry
// points, not for concurrent reconfiguration mid-run.
func SetBudget(n int) {
	budgetMu.Lock()
	defer budgetMu.Unlock()
	if n < 0 {
		n = Workers() - 1
		if n < 0 {
			n = 0
		}
	}
	budgetCap = n
}

// Budget reports the current token cap.
func Budget() int {
	budgetMu.Lock()
	defer budgetMu.Unlock()
	return budgetLimit()
}

// AcquireTokens grants up to want extra-worker tokens, non-blocking:
// whatever is free right now, possibly zero. Pair with ReleaseTokens
// for exactly the granted count.
func AcquireTokens(want int) int {
	if want <= 0 {
		return 0
	}
	budgetMu.Lock()
	defer budgetMu.Unlock()
	free := budgetLimit() - budgetUse
	if free <= 0 {
		return 0
	}
	if want > free {
		want = free
	}
	budgetUse += want
	return want
}

// ReleaseTokens returns n tokens granted by AcquireTokens.
func ReleaseTokens(n int) {
	if n <= 0 {
		return
	}
	budgetMu.Lock()
	defer budgetMu.Unlock()
	budgetUse -= n
	if budgetUse < 0 {
		budgetUse = 0
	}
}

// Pool runs index-addressed job grids over a fixed number of workers.
// The zero value is not usable; construct with New.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; n <= 0 means
// Workers() (env override, then GOMAXPROCS).
func New(n int) *Pool {
	if n <= 0 {
		n = Workers()
	}
	return &Pool{workers: n}
}

// NumWorkers reports the pool's worker count.
func (p *Pool) NumWorkers() int { return p.workers }

// Do runs job(0) … job(n-1), each exactly once. With one worker (or a
// single job) everything runs in-line on the calling goroutine in
// index order — the historical sequential loop. Otherwise jobs are
// claimed from an atomic counter by p.workers goroutines, so low
// indices start first but completion order is arbitrary.
//
// All jobs run regardless of failures; Do then reports the error of
// the lowest failing index, so the error surfaced does not depend on
// scheduling.
func (p *Pool) Do(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p.workers == 1 || n == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := job(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	w := p.workers
	if w > n {
		w = n
	}
	// Draw the extra workers (beyond this goroutine) from the shared
	// token budget; a small grant degrades toward the sequential loop,
	// which produces identical results.
	extra := AcquireTokens(w - 1)
	defer ReleaseTokens(extra)
	w = 1 + extra
	if w == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := job(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs f over indices 0 … n-1 through the pool and returns the
// results in index order. On error the partial results are discarded
// and the lowest-index error is returned.
func Map[T any](p *Pool, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Do(n, func(i int) error {
		v, err := f(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
