package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe set of named metrics: monotonic counters,
// gauges, and fixed-bucket histograms. Instruments are created once
// (get-or-create by name) and then updated lock-free with single atomic
// operations; Snapshot walks the registry without stopping writers. A
// gauge may also be a function read at snapshot time (GaugeFunc), for a
// value derived from other instruments that no hot path should store.
//
// A nil *Registry hands out nil instruments, and every instrument method
// is nil-safe, so instrumented code needs no "is observability on?"
// branches: an unobserved node updates nil handles for the cost of a
// nil check.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers f as the read-time gauge name: Snapshot reports
// f() under Gauges[name], and nothing is stored between snapshots. The
// first function registered under a name stays; a later one is ignored,
// so instruments sharing a registry must derive the same value. f runs
// with the registry locked and must not call back into it. Nil-safe.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gaugeFuncs == nil {
		r.gaugeFuncs = make(map[string]func() int64)
	}
	if _, ok := r.gaugeFuncs[name]; !ok {
		r.gaugeFuncs[name] = f
	}
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (bounds are sorted and must be
// non-empty on first creation; later calls reuse the existing buckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// cacheLine is the coherence unit the instruments are padded to: a hot
// counter alone on its line is not invalidated by writes to its neighbour.
const cacheLine = 64

// Counter is a monotonic uint64 counter, padded to a cache line so two
// hot counters never share one.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Add increments the counter by delta; Inc by one. Nil-safe.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value, padded to a cache line like
// Counter.
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add moves the gauge by delta (negative to decrease). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Set replaces the gauge value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed buckets chosen at
// creation. Observe is lock-free: one atomic add on the bucket counter
// plus the sum's compare-and-swap. Bucket i counts observations <=
// bounds[i]; one extra overflow bucket counts the rest. There is no
// separate total: the count is the sum of the buckets, so a reader never
// sees a count that disagrees with them, and Observe writes one word
// fewer.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; immutable after creation
	buckets []atomic.Uint64
	// sum sits on its own cache line: every Observe rewrites it, and the
	// read-only headers above are loaded by every Observe too.
	_   [cacheLine]byte
	sum atomic.Uint64 // math.Float64bits of the running sum (CAS loop)
	_   [cacheLine - 8]byte
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search the bucket: len(bounds) is small and fixed.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Count returns the number of observations, the sum of the buckets (0 on
// nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// LatencyBuckets are the default upper bounds (seconds) for RPC round-trip
// histograms: 50µs to 5s, roughly exponential.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// CountBuckets returns linear upper bounds 1..n — suitable for small
// discrete quantities such as flush batch sizes.
func CountBuckets(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// HopBuckets are the upper bounds for lookup hop-count histograms: exact
// 1..16 for the converged-ring range, then coarser steps out to 512 — past
// the runtime's lookup hop budget, so even a failed lookup recorded at
// max-hops lands in a bounded bucket and quantiles stay finite.
var HopBuckets = []float64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON
// (expvar-style: flat name -> value maps per instrument kind).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets[i] counts observations <= Bounds[i]; the final entry of
	// Buckets (one past the last bound) counts overflow observations.
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Mean returns the mean observation (0 with no observations).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1)
// from the bucket counts: the smallest bucket bound at which the
// cumulative count reaches q*Count. Overflow observations report +Inf.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// BoundedQuantile is Quantile clamped to the histogram's largest bucket
// bound, so the estimate stays finite (and JSON-marshalable) even when the
// rank falls in the overflow bucket.
func (h HistogramSnapshot) BoundedQuantile(q float64) float64 {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		if len(h.Bounds) == 0 {
			return 0
		}
		return h.Bounds[len(h.Bounds)-1]
	}
	return v
}

// Snapshot copies the registry's current state. Nil-safe (returns a zero
// Snapshot).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Load()
		}
	}
	if len(r.gauges)+len(r.gaugeFuncs) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Load()
		}
		for name, f := range r.gaugeFuncs {
			snap.Gauges[name] = f()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Sum:     math.Float64frombits(h.sum.Load()),
				Bounds:  h.bounds,
				Buckets: make([]uint64, len(h.buckets)),
			}
			for i := range h.buckets {
				hs.Buckets[i] = h.buckets[i].Load()
				hs.Count += hs.Buckets[i]
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}
