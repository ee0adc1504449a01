package main

import (
	"runtime"
	"syscall"
	"time"
)

// heapCounters is one reading of the Go runtime's allocation and GC
// counters: the /gc/heap/allocs:bytes and :objects totals, the live heap,
// and GC cycles and pauses. runtime.ReadMemStats flushes every P's
// allocation cache first, so even a delta of a few small objects is exact
// (runtime/metrics only counts them once a cache refills).
type heapCounters struct {
	AllocBytes   uint64 // cumulative heap bytes allocated
	AllocObjects uint64 // cumulative heap objects allocated
	HeapBytes    uint64 // live heap bytes
	GCCycles     uint64 // completed GC cycles
	GCPauseNS    uint64 // cumulative stop-the-world pause
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{ms.TotalAlloc, ms.Mallocs, ms.HeapAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

const mb = 1 << 20
