package main

import (
	"math/rand"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 95}, {900, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestP95NeedsTwoHundredSamples(t *testing.T) {
	samples := make([]float64, 199)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if _, err := p95(samples); err == nil {
		t.Fatal("p95 of 199 samples was printed")
	}
	samples = append(samples, 200)
	got, err := p95(samples)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}, {120, 130}}, 50},
		{"disjoint children", []interval{{170, 180}, {110, 120}}, 80},
		{"children clipped to the span", []interval{{50, 120}, {190, 250}}, 70},
		{"children outside the span", []interval{{10, 20}, {300, 400}}, 100},
		{"children covering everything", []interval{{90, 150}, {150, 210}}, 0},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		start := rng.Int63n(1000)
		span := interval{start, start + rng.Int63n(1000)}
		kids := make([]interval, rng.Intn(6))
		for i := range kids {
			s := rng.Int63n(2200) - 100
			kids[i] = interval{s, s + rng.Int63n(800)}
		}
		if got := selfTime(span, kids); got < 0 || got > span.end-span.start {
			t.Fatalf("self %d outside [0, %d] for %v with %v", got, span.end-span.start, span, kids)
		}
	}
}

var sink [][]byte

func TestProcDeltaCoversOnlyThePhase(t *testing.T) {
	// Allocations before the phase starts must not count.
	for i := 0; i < 50000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	sink = nil
	before, err := readProc()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	after, err := readProc()
	if err != nil {
		t.Fatal(err)
	}
	sink = nil
	d := before.to(after)
	if d.mallocs < 1000 || d.mallocs > 20000 {
		t.Errorf("mallocs over the phase %d, want about 1000", d.mallocs)
	}
	if d.allocBytes < 64000 {
		t.Errorf("bytes allocated over the phase %d, want at least 64000", d.allocBytes)
	}
	if d.cpu < 0 || d.wall <= 0 {
		t.Errorf("cpu %v wall %v", d.cpu, d.wall)
	}
	if d.gcFraction < 0 || d.gcFraction > 1 {
		t.Errorf("gc fraction %v outside [0, 1]", d.gcFraction)
	}
}

func TestPhaseRatesUseWindowMedians(t *testing.T) {
	p := phase{windows: []window{
		{wall: 1e9, cpu: 2e6, deliveries: 1000},
		{wall: 1e9, cpu: 50e6, deliveries: 100}, // a stalled second
		{wall: 1e9, cpu: 3e6, deliveries: 1200},
	}}
	if got := p.deliveriesPerSec(); got != 1000 {
		t.Errorf("deliveries/s %v, want the median window's 1000", got)
	}
	if got := p.cpuPerDelivery(); got != 2500 {
		t.Errorf("cpu per delivery %v, want the median window's 2.5µs", got)
	}
}
