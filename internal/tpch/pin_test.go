package tpch

import (
	"testing"

	"saspar/internal/workload/workloadtest"
)

// TestGeneratorStreamsPinned holds the default configuration's three
// streams bit for bit to digests of the streams math.Pow drew:
// workload.PowCurve's fast draw must not move a single row.
func TestGeneratorStreamsPinned(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"lineitem": {
			"53a31e4047befa6398b1418e21657c5493ca24fa1f68857b02847d92d9efd0b9",
			"30cc67b5587948874d0350c2e24e5a4c5cfab9ddcbe723543b104e5ff1cbf4b2",
		},
		"orders": {
			"f4866582c09d60da3cee40b79c0755930403349767cce2fde598231347a49593",
			"2516154b1dfa33433ca2cb2ac70dbb01a481b39c4be0cd3c037930c63a412e9b",
		},
		"customer": {
			"7f37adc640aa120b28aa4569f9d1739ecf0f955709ef9b44d1a442945125d84c",
			"d85bd0b06f2038a8c8878959bebf596978f7eb78a4203184a7f362dffe0473ed",
		},
	}
	for _, def := range w.Streams {
		for i, task := range []int{0, 5} {
			block, row := workloadtest.StreamDigests(def, task, 200_000)
			if block != row {
				t.Errorf("%s task %d: NextBlock digest %s, Next digest %s", def.Name, task, block, row)
			}
			if block != want[def.Name][i] {
				t.Errorf("%s task %d: digest %s, pinned %s", def.Name, task, block, want[def.Name][i])
			}
		}
	}
}
