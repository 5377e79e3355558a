package bench

import (
	"io"
	"testing"

	"saspar/internal/core"
)

// The acceptance shape of the migration experiment: at every drift
// intensity the staged arm must pause less per reconfiguration and
// ship fewer bytes at the alignment point than pause-and-transfer.
func TestMigrationStagedBeatsPause(t *testing.T) {
	rows, err := Migration(Quick())
	if err != nil {
		t.Fatal(err)
	}
	drifts := MigrationDrifts()
	if len(rows) != 2*len(drifts) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(drifts))
	}
	type key struct {
		mode  string
		drift float64
	}
	byCell := map[key]MigrationRow{}
	for _, r := range rows {
		byCell[key{r.Mode, r.DriftTU}] = r
	}
	for _, d := range drifts {
		staged, ok := byCell[key{core.MigrationStaged, d}]
		if !ok {
			t.Fatalf("missing staged cell at drift %gTU", d)
		}
		pause, ok := byCell[key{core.MigrationPause, d}]
		if !ok {
			t.Fatalf("missing pause cell at drift %gTU", d)
		}
		if staged.Staged == 0 {
			t.Fatalf("drift %gTU: staged arm never staged (%+v)", d, staged)
		}
		if pause.Staged != 0 || pause.StagedMB != 0 {
			t.Fatalf("drift %gTU: pause arm staged state anyway (%+v)", d, pause)
		}
		if staged.MeanPauseMs >= pause.MeanPauseMs {
			t.Fatalf("drift %gTU: staged pause %.1fms not below pause-and-transfer %.1fms",
				d, staged.MeanPauseMs, pause.MeanPauseMs)
		}
		if staged.AlignMB >= pause.AlignMB {
			t.Fatalf("drift %gTU: staged alignment bytes %.2fMB not below pause-and-transfer %.2fMB",
				d, staged.AlignMB, pause.AlignMB)
		}
	}
	PrintMigration(io.Discard, rows)
}

// Two runs of the same cell must agree exactly — the byte-identical
// contract the -workers knob and the engine's own tick workers rely on.
func TestMigrationDeterministic(t *testing.T) {
	sc := Quick()
	sc.DeterministicOpt = true
	a, err := migrationCell(sc, core.MigrationStaged, MigrationDrifts()[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := migrationCell(sc, core.MigrationStaged, MigrationDrifts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("migration cell not deterministic:\n  %+v\n  %+v", a, b)
	}
}
