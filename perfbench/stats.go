package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must rank above a percentile before
// the benchmark reports it: a p99 needs at least 1000 samples, a median
// at least 21.
const minBeyond = 10

// dist is a sorted copy of raw samples; its quantiles are exact, not
// read off histogram buckets.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// quantile returns the nearest-rank q-quantile — the sample at 1-based
// rank ceil(q·n) — and how many samples rank beyond it. It refuses
// (returns an error) when fewer than minBeyond samples rank beyond.
func (d dist) quantile(q float64) (v float64, beyond int, err error) {
	n := len(d)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	if n == 0 || beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g refused: %d samples, %d beyond (need %d)", q*100, n, beyond, minBeyond)
	}
	return d[rank-1], beyond, nil
}

// blockQuantile splits samples, in completion order, into whole
// blocks of block samples, takes each block's exact q-quantile in
// microseconds, and returns the median over the blocks: a stall
// confined to a few blocks moves only their values, not the median.
func blockQuantile(ns []int64, block int, q float64) (v float64, blocks int, err error) {
	var per []float64
	for i := 0; i+block <= len(ns); i += block {
		v, _, err := newDist(nanosToMicros(ns[i : i+block])).quantile(q)
		if err != nil {
			return 0, 0, err
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, 0, fmt.Errorf("%d samples, fewer than one block of %d", len(ns), block)
	}
	return median(per), len(per), nil
}

// median is the middle sample (lower middle for even counts), for
// summaries of rates and blocks that the refusal rule of
// dist.quantile does not apply to.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return newDist(xs)[(len(xs)-1)/2]
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// nanosToMicros converts raw nanosecond samples to float microseconds.
func nanosToMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a snapshot of the process-wide runtime counters the
// per-layer runtime metrics are deltas of.
type procSample struct {
	wall           time.Time
	cpu            time.Duration // user+system CPU of the whole process
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, allCPU  float64 // runtime/metrics cpu-seconds
}

var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuClasses)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcCPU:   cpuClasses[0].Value.Float64(),
		allCPU:  cpuClasses[1].Value.Float64(),
	}
}

// runtimeMetrics turns the counter deltas over a phase that attempted
// ops operations, set-ups and warm-up included, into the Go-runtime
// layer metrics.
func runtimeMetrics(a, b procSample, ops int) []metric {
	n := float64(ops)
	wall := b.wall.Sub(a.wall).Seconds()
	return []metric{
		{name: "mem.allocs_per_op", unit: "count", value: ratio(float64(b.mallocs-a.mallocs), n), n: ops},
		{name: "mem.bytes_per_op", unit: "B", value: ratio(float64(b.bytes-a.bytes), n), n: ops},
		{name: "gc.cpu_share", unit: "share", value: ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU), n: ops},
		{name: "gc.cycles", unit: "1/kop", value: ratio(float64(b.gcs-a.gcs)*1000, n), n: ops},
		{name: "cpu.busy_share", unit: "share", value: ratio((b.cpu - a.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0))), n: ops},
	}
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}
