package gcm

import (
	"testing"

	"saspar/internal/workload/workloadtest"
)

// TestGeneratorStreamPinned holds the default configuration's stream bit
// for bit to digests of the stream math.Pow drew: workload.PowCurve's
// fast draw must not move a single row.
func TestGeneratorStreamPinned(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := [2]string{
		"a195c6cf66f49f5dc9c3a667265e38c965367858860855e2dd9a7e6542a432a3",
		"8bc4e1477db37c01a0479c7492151e9ab20d31daab317bf5bd5b11984c7fa07a",
	}
	def := w.Streams[0]
	for i, task := range []int{0, 5} {
		block, row := workloadtest.StreamDigests(def, task, 200_000)
		if block != row {
			t.Errorf("task %d: NextBlock digest %s, Next digest %s", task, block, row)
		}
		if block != want[i] {
			t.Errorf("task %d: digest %s, pinned %s", task, block, want[i])
		}
	}
}
