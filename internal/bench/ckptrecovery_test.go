package bench

import (
	"bytes"
	"testing"
)

// TestCkptRecoveryShape asserts the experiment's claim: with
// checkpointing armed, net lost work is a small fraction of the
// baseline's, restored bytes are nonzero, and shorter intervals never
// lose more than longer ones (state churn per interval is monotone).
func TestCkptRecoveryShape(t *testing.T) {
	sc := Quick()
	sc.Workers = 2
	rows, err := CkptRecovery(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	byItv := map[float64]CrashRow{}
	for _, r := range rows {
		byItv[r.IntervalTU] = r
	}
	base, ok := byItv[0]
	if !ok {
		t.Fatal("no baseline (interval off) row")
	}
	if base.Checkpoints != 0 || base.RestoredMB != 0 {
		t.Fatalf("baseline ran checkpoints: %+v", base)
	}
	if base.NetLostMB <= 0 {
		t.Fatalf("baseline lost nothing — crash didn't destroy state: %+v", base)
	}
	for _, itv := range []float64{1, 2, 4} {
		r, ok := byItv[itv]
		if !ok {
			t.Fatalf("missing interval %gTU row", itv)
		}
		if r.Checkpoints == 0 {
			t.Errorf("interval %gTU: no checkpoints completed", itv)
		}
		if r.RestoredMB <= 0 {
			t.Errorf("interval %gTU: nothing restored", itv)
		}
		if r.RestoreMs <= 0 {
			t.Errorf("interval %gTU: restore transfer took no time", itv)
		}
		// The bound under test: net loss with checkpointing stays well
		// under the baseline's total loss (one interval of churn vs the
		// whole resident state). Half is a loose ceiling; in practice
		// it's a few percent.
		if r.NetLostMB >= base.NetLostMB/2 {
			t.Errorf("interval %gTU: net loss %.1f MB not bounded vs baseline %.1f MB",
				itv, r.NetLostMB, base.NetLostMB)
		}
	}
	if byItv[1].NetLostMB > byItv[4].NetLostMB {
		t.Errorf("shorter interval lost more: 1TU %.1f MB > 4TU %.1f MB",
			byItv[1].NetLostMB, byItv[4].NetLostMB)
	}
}

// TestCkptRecoveryParallelEquivalence asserts the rendered experiment
// output is byte-identical at any worker count — the determinism
// contract every virtual-time harness keeps.
func TestCkptRecoveryParallelEquivalence(t *testing.T) {
	render := func(workers int) []byte {
		sc := Quick()
		sc.Workers = workers
		rows, err := CkptRecovery(sc, 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		PrintCkptRecovery(&buf, rows)
		return buf.Bytes()
	}
	serial := render(1)
	fanned := render(3)
	if !bytes.Equal(serial, fanned) {
		t.Fatalf("output differs across worker counts:\n-- workers=1 --\n%s\n-- workers=3 --\n%s", serial, fanned)
	}
}
