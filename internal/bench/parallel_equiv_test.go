package bench

import (
	"strings"
	"testing"
	"time"

	"saspar/internal/vtime"
)

// TestParallelEquivalence is the parallel runner's correctness
// contract: RunAll output at one worker (the historical sequential
// loops) and at several workers must be byte-identical. Every cell is
// an isolated virtual-time simulation, so the only permissible
// difference between worker counts is wall clock.
//
// The sections RunAll marks WallClock are left out of the comparison —
// they differ between any two runs — and run once, as the smoke they
// have nowhere else. Everything else — every throughput, latency,
// reshuffle, sharing and ML number — is compared exactly.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute harness comparison")
	}
	sc := Quick()
	sc.Warmup = 3 * vtime.Second
	sc.Measure = 3 * vtime.Second
	sc.OptTimeout = 150 * time.Millisecond
	sc.MIPCap = 150 * time.Millisecond
	// Node-capped optimization: in-cell plans must not depend on how
	// much real CPU a wall-clock budget happens to buy, or cells would
	// differ between ANY two runs, parallel or not.
	sc.DeterministicOpt = true

	run := func(workers int, wallClock bool) string {
		s := sc
		s.Workers = workers
		var pick []Section
		for _, sec := range Sections(s) {
			if sec.WallClock == wallClock {
				pick = append(pick, sec)
			}
		}
		var b strings.Builder
		if err := runSections(&b, pick); err != nil {
			t.Fatalf("sections(workers=%d, wallClock=%v): %v", workers, wallClock, err)
		}
		return b.String()
	}

	if out := run(4, true); strings.Count(out, "\n== ") != 2 || !strings.Contains(out, "Figure 8a/8b") || !strings.Contains(out, "Figure 12a") {
		t.Fatalf("want exactly Figure 8a/8b and Figure 12a marked WallClock, got:\n%s", out)
	}
	seq, par := run(1, false), run(4, false)
	if n := strings.Count(seq, "\n== "); n != len(Sections(sc))-2 {
		t.Fatalf("compared %d sections of %d", n, len(Sections(sc)))
	}
	if seq == par {
		return
	}
	seqLines := strings.Split(seq, "\n")
	parLines := strings.Split(par, "\n")
	for i := 0; i < len(seqLines) || i < len(parLines); i++ {
		var a, b string
		if i < len(seqLines) {
			a = seqLines[i]
		}
		if i < len(parLines) {
			b = parLines[i]
		}
		if a != b {
			t.Errorf("line %d differs:\n  workers=1: %q\n  workers=4: %q", i+1, a, b)
		}
	}
	t.Fatal("parallel RunAll output diverged from sequential")
}
