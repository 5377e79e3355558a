// Package enginetest holds fixtures shared by the engine's and the
// SASPAR layer's test suites. Only _test.go files import it.
package enginetest

// WorkerCell is an Engine.PinTickWorkers value and a parallel.SetBudget
// budget.
type WorkerCell struct{ Pinned, Budget int }

// WorkerGrid is the one grid the worker-count-invariance suites replay
// over, sequential reference first: pinned 4 without budget degrades to
// inline, pinned 2 and 4 with budget run real goroutines, and unpinned
// puts the engine's own sizing rule under the byte-identity check.
func WorkerGrid() []WorkerCell {
	return []WorkerCell{{1, 0}, {4, 0}, {2, 4}, {4, 4}, {0, 4}}
}
