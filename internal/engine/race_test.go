//go:build race

package engine

// raceEnabled reports the race detector is instrumenting this build;
// wall-clock assertions calibrated for plain builds skip under the
// detector's ~10× slowdown.
const raceEnabled = true
