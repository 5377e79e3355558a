package flashwl

import (
	"testing"

	"saspar/internal/engine"
	"saspar/internal/vtime"
	"saspar/internal/workload"
)

func TestScheduleSwingsTenfold(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// at replays the schedule's rate events up to d, as a fraction of
	// the calm-phase rate.
	at := func(d vtime.Duration) float64 {
		rate := w.Rates[0]
		for _, ev := range w.Schedule.Sorted() {
			if ev.At <= vtime.Time(0).Add(d) {
				rate = ev.Rate
			}
		}
		return rate / w.Rates[0]
	}
	if s := at(0); s != 1 {
		t.Fatalf("calm phase scale %v, want 1", s)
	}
	if s := at(15 * vtime.Second); s != 10 {
		t.Fatalf("flash phase scale %v, want 10", s)
	}
	if s := at(30 * vtime.Second); s != 1 {
		t.Fatalf("post-flash scale %v, want 1", s)
	}
	// Second diurnal cycle flashes too.
	if s := at(75 * vtime.Second); s != 10 {
		t.Fatalf("second-cycle flash scale %v, want 10", s)
	}
	if s := at(100 * vtime.Second); s != 1 {
		t.Fatalf("second-cycle calm scale %v, want 1", s)
	}
}

func TestRegistryAndValidation(t *testing.T) {
	w, err := workload.Open("flash", workload.Options{Queries: 2, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 2 || w.Rates[0] != 1000 {
		t.Fatalf("options not applied: %d queries, rate %v", len(w.Queries), w.Rates[0])
	}
	bad := DefaultConfig()
	bad.FlashScale = 1
	if _, err := New(bad); err == nil {
		t.Fatal("FlashScale 1 accepted")
	}
	bad = DefaultConfig()
	bad.FlashEnd = bad.FlashStart
	if _, err := New(bad); err == nil {
		t.Fatal("empty flash window accepted")
	}
	bad = DefaultConfig()
	bad.FlashEnd = bad.Period + vtime.Second
	if _, err := New(bad); err == nil {
		t.Fatal("flash past the period accepted")
	}
}

// Batched and row-at-a-time generation must agree — the engine's
// byte-identical guarantee starts at the source.
func TestNextBlockMatchesNext(t *testing.T) {
	cfg := DefaultConfig()
	native := newGen(cfg, 3)
	rowed := workload.RowAdapter(newGen(cfg, 3))

	const n = 256
	mk := func() *engine.TupleBlock {
		b := &engine.TupleBlock{}
		for c := 0; c < 3; c++ {
			b.Col[c] = make([]int64, n)
		}
		b.TS = make([]vtime.Time, n)
		return b
	}
	a, b := mk(), mk()
	native.NextBlock(a, 0, n)
	rowed.NextBlock(b, 0, n)
	for r := 0; r < n; r++ {
		for c := 0; c < 3; c++ {
			if a.Col[c][r] != b.Col[c][r] {
				t.Fatalf("row %d col %d: native %d != adapter %d", r, c, a.Col[c][r], b.Col[c][r])
			}
		}
	}
}
