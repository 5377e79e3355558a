package main

import (
	"runtime"
	"syscall"
	"time"
)

// procUsage is what the operating system and the Go runtime account to
// this process so far.
type procUsage struct {
	cpu      time.Duration // user + system
	maxRSSMB float64       // peak resident set
	faults   int64         // minor page faults
	gcCycles uint32
	heapMB   float64 // heap memory obtained from the OS; it is never returned during a run, so the last reading is the peak
}

func readUsage() procUsage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		faults:   ru.Minflt,
		gcCycles: ms.NumGC,
		heapMB:   float64(ms.HeapSys) / (1 << 20),
	}
}
