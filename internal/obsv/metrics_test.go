package obsv

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	g := r.Gauge("y")
	g.Add(1)
	g.Set(9)
	if g.Load() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	h := r.Histogram("z", LatencyBuckets)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 {
		t.Error("nil histogram counted")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Error("nil registry snapshot not empty")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name returned different counters")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("same name returned different gauges")
	}
	if r.Histogram("a", CountBuckets(4)) != r.Histogram("a", nil) {
		t.Error("same name returned different histograms")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("inflight")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Errorf("gauge = %d, want 0", g.Load())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", CountBuckets(8))
	for _, v := range []float64{1, 1, 2, 3, 3, 3, 7, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["hops"]
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	if snap.Sum != 120 {
		t.Errorf("sum = %g, want 120", snap.Sum)
	}
	if got := snap.Buckets[0]; got != 2 { // <= 1
		t.Errorf("bucket <=1 = %d, want 2", got)
	}
	if got := snap.Buckets[2]; got != 3 { // <= 3 exclusive of earlier buckets
		t.Errorf("bucket <=3 = %d, want 3", got)
	}
	if got := snap.Buckets[len(snap.Buckets)-1]; got != 1 { // overflow: 100
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if q := snap.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %g, want 3", q)
	}
	if q := snap.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %g, want +Inf (overflow sample)", q)
	}
	if m := snap.Mean(); m != 15 {
		t.Errorf("mean = %g, want 15", m)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w%4) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot().Histograms["lat"]
	if snap.Count != 8000 {
		t.Errorf("count = %d, want 8000", snap.Count)
	}
	var inBuckets uint64
	for _, b := range snap.Buckets {
		inBuckets += b
	}
	if inBuckets != 8000 {
		t.Errorf("bucket total = %d, want 8000", inBuckets)
	}
	want := float64(2000*1+2000*2+2000*3) * 0.001
	if math.Abs(snap.Sum-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", snap.Sum, want)
	}
}

// TestHistogramSnapshotDuringObserve takes snapshots while writers
// observe: a histogram's count is the sum of its buckets, so every
// snapshot agrees with itself however the writes interleave.
func TestHistogramSnapshotDuringObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%7+w) * 0.0007)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := r.Snapshot().Histograms["lat"]
		var inBuckets uint64
		for _, b := range snap.Buckets {
			inBuckets += b
		}
		if snap.Count != inBuckets {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: count = %d, bucket total = %d", i, snap.Count, inBuckets)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := h.Count(), r.Snapshot().Histograms["lat"].Count; got != want {
		t.Errorf("Count() = %d after writers stopped, snapshot count = %d", got, want)
	}
}

// TestGaugeFunc checks a read-time gauge is evaluated at each snapshot,
// that the first function registered under a name stays, and that a nil
// registry ignores it.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var v int64
	r.GaugeFunc("derived", func() int64 { return v })
	r.GaugeFunc("derived", func() int64 { return -1 })
	v = 3
	if got := r.Snapshot().Gauges["derived"]; got != 3 {
		t.Errorf("derived = %d, want 3", got)
	}
	v = 5
	if got := r.Snapshot().Gauges["derived"]; got != 5 {
		t.Errorf("derived = %d after change, want 5", got)
	}
	var nilReg *Registry
	nilReg.GaugeFunc("derived", func() int64 { return 1 })
}

// Metric updates are on protocol hot paths: they must not allocate.
func TestInstrumentUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f per op", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Add(1) }); allocs != 0 {
		t.Errorf("Gauge.Add allocates %.1f per op", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op", allocs)
	}
}
