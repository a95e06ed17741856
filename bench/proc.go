package main

import (
	"runtime"
	"syscall"
	"time"

	"ssbyzclock/internal/multi"
)

// procSnap is a point-in-time reading of process-wide cost counters.
// Two snapshots bracket a timed section; delta subtracts them.
type procSnap struct {
	wall       time.Time
	cpuNs      int64 // user+sys, getrusage
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	pauseNs    uint64
	heapSys    uint64
}

// snapProc reads the counters. ReadMemStats stops the world for a few
// tens of microseconds, so it is called only at section boundaries,
// never per beat.
func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSnap{
		wall:       time.Now(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		heapSys:    ms.HeapSys,
	}
}

// procCost is what a timed section cost the process. Sections add up
// (the engine workload times each episode separately).
type procCost struct {
	wallNs, cpuNs       int64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	heapSysPeak         uint64
}

func (c *procCost) add(from, to procSnap) {
	c.wallNs += int64(to.wall.Sub(from.wall))
	c.cpuNs += to.cpuNs - from.cpuNs
	c.mallocs += to.mallocs - from.mallocs
	c.allocBytes += to.allocBytes - from.allocBytes
	c.gcCycles += to.numGC - from.numGC
	c.gcPauseNs += to.pauseNs - from.pauseNs
	c.heapSysPeak = max(c.heapSysPeak, to.heapSys)
}

// procMetrics fills the proc.* per-layer metrics for a timed section of
// `beats` protocol-instance beats.
func (c procCost) procMetrics(m metrics, beats float64) {
	m["proc.cpu_ms_per_beat"] = float64(c.cpuNs) / 1e6 / beats
	m["proc.bytes_alloc_per_beat"] = float64(c.allocBytes) / beats
	m["proc.gc_cycles"] = float64(c.gcCycles)
	m["proc.gc_pause_ms_total"] = float64(c.gcPauseNs) / 1e6
	// HeapSys only grows, so its last reading is the peak heap the
	// process reserved from the OS.
	m["proc.heap_peak_mb"] = float64(c.heapSysPeak) / (1 << 20)
}

// heapGrowth is the live heap now (multi.LiveHeap: after forced
// collections) minus an earlier multi.LiveHeap reading: what the thing
// built in between keeps resident.
func heapGrowth(before uint64) float64 {
	if after := multi.LiveHeap(); after > before {
		return float64(after - before)
	}
	return 0
}
