package main

import (
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// minP95Samples is the fewest samples p95 is printed from: 5% of 200 is
// minTail.
const minP95Samples = 200

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(float64(n)*p/100 + 0.5)
	return min(max(r, 1), n)
}

// p95 is the 95th percentile, refused below minP95Samples samples.
func p95(samples []float64) (float64, error) {
	if len(samples) < minP95Samples {
		return 0, fmt.Errorf("p95 needs %d samples, have %d", minP95Samples, len(samples))
	}
	return percentile(samples, 95), nil
}

// tailPercentiles is the ladder tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least minTail of n samples ranked beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minTail {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of span minus the part of it that the union of
// children covers. Children are clipped to span and may overlap one
// another; the result is never negative. children is sorted in place.
func selfTime(span interval, children []interval) int64 {
	total := span.end - span.start
	if total <= 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	flush := func() {
		if cur.end > cur.start {
			covered += cur.end - cur.start
		}
	}
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end <= c.start {
			continue
		}
		if cur.end < 0 || c.start > cur.end {
			flush()
			cur = c
		} else if c.end > cur.end {
			cur.end = c.end
		}
	}
	flush()
	if covered > total {
		return 0
	}
	return total - covered
}

// procSample is a reading of the process counters a phase's deltas come
// from.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system, getrusage
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime/metrics
	totalCPU   float64 // seconds, runtime/metrics
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func readProc() (procSample, error) {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	cpu, err := cpuTime()
	if err != nil {
		return s, err
	}
	s.cpu = cpu
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	s.wall = time.Now()
	return s, nil
}

// procDelta is what a phase cost the process.
type procDelta struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcFraction float64 // GC CPU over available CPU, GOMAXPROCS × wall
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
	}
	if total := b.totalCPU - a.totalCPU; total > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / total
	}
	return d
}

// perUnit divides v by n, or returns 0 when n is 0.
func perUnit(v float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}
