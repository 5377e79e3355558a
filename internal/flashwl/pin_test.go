package flashwl

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
		"914d280881735ebf86b02ca5481ce8ce90baee7daf8387407d05f547c682ff81",
		"97671a922995f83f177cb409230b130b89df2f494b4e70c8edb0fc7206845193",
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
