package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minAboveP90 is how many samples every run must leave above its p90, so
// the p90 rests on at least that many observations beyond it.
const minAboveP90 = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesAbove is how many samples lie beyond the nearest-rank p-th
// percentile's rank.
func samplesAbove(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// latencyPercentiles returns the nearest-rank p50 and p90 request latency
// in milliseconds, or an error when fewer than minAboveP90 samples lie
// above the p90.
func latencyPercentiles(lats []time.Duration) (p50, p90 float64, err error) {
	if above := samplesAbove(len(lats), 90); above < minAboveP90 {
		return 0, 0, fmt.Errorf("%d requests leave %d samples above p90, want >= %d", len(lats), above, minAboveP90)
	}
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return nearestRank(ms, 50), nearestRank(ms, 90), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU time (getrusage)
	alloc    uint64        // runtime.MemStats.TotalAlloc
	gcs      uint64        // completed GC cycles
	gcCPU    float64       // runtime/metrics estimate of GC CPU seconds
	totalCPU float64       // runtime/metrics estimate of all CPU seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(usageSamples)
	return usage{
		cpu:      cpuTime(),
		alloc:    ms.TotalAlloc,
		gcs:      uint64(ms.NumGC),
		gcCPU:    usageSamples[0].Value.Float64(),
		totalCPU: usageSamples[1].Value.Float64(),
	}
}

// add accumulates the growth from before to after into u.
func (u *usage) add(before, after usage) {
	u.cpu += after.cpu - before.cpu
	u.alloc += after.alloc - before.alloc
	u.gcs += after.gcs - before.gcs
	u.gcCPU += after.gcCPU - before.gcCPU
	u.totalCPU += after.totalCPU - before.totalCPU
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
