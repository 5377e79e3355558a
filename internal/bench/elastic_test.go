package bench

import (
	"io"
	"testing"
)

// The flash crowd must grow both arms' clusters, and shared
// partitioning must spend no more time in SLO violation than the
// sequential baseline — moving one shared plan beats moving k per-query
// plans while the cluster is drowning.
func TestElasticFlashCrowd(t *testing.T) {
	rows, err := Elastic(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	byArm := map[string]ElasticRow{}
	for _, r := range rows {
		byArm[r.Arm] = r
	}
	for _, arm := range []string{"shared", "sequential"} {
		r, ok := byArm[arm]
		if !ok {
			t.Fatalf("missing %s arm", arm)
		}
		if r.Joins == 0 {
			t.Fatalf("%s arm never joined under the flash crowd", arm)
		}
		if r.PeakNodes <= Quick().Nodes {
			t.Fatalf("%s arm peak nodes %d never exceeded the seed %d", arm, r.PeakNodes, Quick().Nodes)
		}
		if r.SLOViolationSec == 0 {
			t.Fatalf("%s arm reports no SLO violation: the crowd never hurt", arm)
		}
	}
	if s, q := byArm["shared"], byArm["sequential"]; s.SLOViolationSec > q.SLOViolationSec {
		t.Fatalf("shared arm violated SLO longer (%.1fs) than sequential (%.1fs)",
			s.SLOViolationSec, q.SLOViolationSec)
	}
	PrintElastic(io.Discard, rows)
}

// Two runs of the same cell must agree exactly — the byte-identical
// contract the -workers knob and the engine's own tick workers rely on.
func TestElasticDeterministic(t *testing.T) {
	sc := Quick()
	a, err := elasticCell(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := elasticCell(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Joins != b.Joins || a.Drains != b.Drains ||
		a.SLOViolationSec != b.SLOViolationSec || a.RecoverSec != b.RecoverSec {
		t.Fatalf("elastic cell not deterministic: %+v vs %+v", a, b)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("nodes series lengths differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("nodes series diverges at %d: %d vs %d", i, a.Nodes[i], b.Nodes[i])
		}
	}
}
