package camcast

// Benchmark harness: one benchmark per figure in the paper's evaluation
// (Section 6), the ablation benches DESIGN.md calls out, micro benchmarks of
// the core operations, and engine benches isolating the parallel experiment
// engine (sequential sweep vs worker pool, fresh tree builds vs in-place
// rebuilds).
//
// The figure benches run the same experiment code as cmd/camfigs — each
// figure executes as a flat grid of points on the engine's worker pool, over
// process-cached populations and memoized overlays — but scaled to
// bench-friendly sizes with the paper's node density (n/2^bits ≈ 0.19)
// preserved; ReportMetric surfaces the headline quantity of each figure so
// `go test -bench=.` output is directly comparable to the paper. After the
// first iteration these benches regenerate over warm caches; the
// FigureSweep benches below reset the caches every iteration to time the
// cold end-to-end sweep. Regenerate the full-scale series with
// `go run ./cmd/camfigs`.

import (
	"context"
	"fmt"
	"testing"

	"camcast/internal/camchord"
	"camcast/internal/camkoorde"
	"camcast/internal/experiments"
	"camcast/internal/multicast"
	"camcast/internal/ring"
	"camcast/internal/workload"
)

// benchConfig preserves the paper's node density at bench scale.
func benchConfig() experiments.Config {
	return experiments.Config{N: 3000, Sources: 1, Seed: 1, Bits: 14}
}

func benchPopulation(b *testing.B) *experiments.Population {
	b.Helper()
	cfg := workload.DefaultConfig(3000, 1)
	cfg.Space = ring.MustSpace(14)
	pop, err := experiments.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return pop
}

// BenchmarkFigure6Throughput regenerates Figure 6 (throughput vs average
// children, all four systems) and reports the CAM-Chord over Chord
// throughput ratio at 10 children — the paper's "70-80% improvement" claim.
func BenchmarkFigure6Throughput(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var camY, chordY float64
		for _, s := range res.Series {
			for _, p := range s.Points {
				if p.X == 10 {
					switch s.Label {
					case string(experiments.SystemCAMChord):
						camY = p.Y
					case string(experiments.SystemChord):
						chordY = p.Y
					}
				}
			}
		}
		ratio = camY / chordY
	}
	b.ReportMetric(ratio, "throughput-ratio@10children")
}

// BenchmarkFigure7Heterogeneity regenerates Figure 7 and reports the
// CAM-Chord/Chord ratio at the widest bandwidth range [400,1600].
func BenchmarkFigure7Heterogeneity(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pts := res.Series[0].Points
		ratio = pts[len(pts)-1].Y
	}
	b.ReportMetric(ratio, "ratio@b=1600")
}

// BenchmarkFigure8Tradeoff regenerates Figure 8 and reports CAM-Chord's
// average path length at the highest-throughput point.
func BenchmarkFigure8Tradeoff(b *testing.B) {
	var pathLen float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pathLen = res.Series[0].Points[0].Y
	}
	b.ReportMetric(pathLen, "hops@max-throughput")
}

// BenchmarkFigure9Distribution regenerates Figure 9 (CAM-Chord path length
// distributions) and reports the histogram peak for the default [4..10]
// capacity range.
func BenchmarkFigure9Distribution(b *testing.B) {
	benchDistribution(b, experiments.Figure9)
}

// BenchmarkFigure10Distribution regenerates Figure 10 (CAM-Koorde).
func BenchmarkFigure10Distribution(b *testing.B) {
	benchDistribution(b, experiments.Figure10)
}

func benchDistribution(b *testing.B, fig func(experiments.Config) (experiments.FigureResult, error)) {
	b.Helper()
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := fig(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Label != "[4..10]" {
				continue
			}
			for _, p := range s.Points {
				if p.Y > peak {
					peak = p.X
				}
			}
		}
	}
	b.ReportMetric(peak, "peak-hops[4..10]")
}

// BenchmarkFigure11PathLength regenerates Figure 11 and reports CAM-Chord's
// average path length at capacity 10 against the 1.5·ln(n)/ln(c) bound.
func BenchmarkFigure11PathLength(b *testing.B) {
	var hops float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Series[0].Points {
			if p.X == 10 {
				hops = p.Y
			}
		}
	}
	b.ReportMetric(hops, "hops@c=10")
}

// Ablation benches (see DESIGN.md).

func BenchmarkAblationKoordeShift(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationShift(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		spread, clustered := res.Series[0].Points, res.Series[1].Points
		gap = 0
		for j := range spread {
			gap += clustered[j].Y - spread[j].Y
		}
		gap /= float64(len(spread))
	}
	b.ReportMetric(gap, "hops-saved-by-right-shift")
}

func BenchmarkAblationChordSpacing(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSpacing(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		even, contiguous := res.Series[0].Points, res.Series[1].Points
		gap = 0
		for j := range even {
			gap += contiguous[j].Y - even[j].Y
		}
		gap /= float64(len(even))
	}
	b.ReportMetric(gap, "hops-saved-by-even-spacing")
}

func BenchmarkAblationLoadSpread(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationLoadSpread(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		perSource, shared := res.Series[0].Points, res.Series[1].Points
		last := len(perSource) - 1
		factor = shared[last].Y / perSource[last].Y
	}
	b.ReportMetric(factor, "load-spread-factor@32sources")
}

func BenchmarkAblationResilience(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationResilience(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ratios := map[string]float64{}
		for _, s := range res.Series {
			var sum float64
			for _, p := range s.Points {
				sum += p.Y
			}
			ratios[s.Label] = sum / float64(len(s.Points))
		}
		gap = ratios["CAM-Koorde c=16"] - ratios["CAM-Chord c=16"]
	}
	b.ReportMetric(gap, "koorde-survival-advantage@c=16")
}

// Engine benches: the full Figure 6 sweep (44 grid points over one
// population) with cold caches every iteration, sequential vs one worker per
// CPU. On a multi-core machine the parallel variant's speedup is roughly the
// core count (the points are embarrassingly parallel); the outputs are
// byte-identical either way (see TestParallelismByteIdenticalTSV).

func BenchmarkFigureSweepSequential(b *testing.B) { benchFigureSweep(b, 1) }
func BenchmarkFigureSweepParallel(b *testing.B)   { benchFigureSweep(b, 0) }

func benchFigureSweep(b *testing.B, parallelism int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Parallelism = parallelism
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		if _, err := experiments.Figure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
	experiments.ResetCaches()
}

// Micro benchmarks of the core operations. The TreeBuild/TreeBuildInto
// pairs contrast a fresh tree allocation per source against the engine's
// in-place rebuild (Tree.Reset): steady-state allocs/op drops ~40× for the
// Into variants (the residue is children-slice growth at nodes that were
// leaves in every earlier source's tree).

func BenchmarkCAMChordTreeBuild(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camchord.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := net.BuildTree(i % pop.Ring.Len())
		if err != nil {
			b.Fatal(err)
		}
		if tree.Reached() != pop.Ring.Len() {
			b.Fatal("incomplete tree")
		}
	}
}

func BenchmarkCAMChordTreeBuildInto(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camchord.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := multicast.NewTree(pop.Ring.Len(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.BuildTreeInto(tree, i%pop.Ring.Len()); err != nil {
			b.Fatal(err)
		}
		if tree.Reached() != pop.Ring.Len() {
			b.Fatal("incomplete tree")
		}
	}
}

func BenchmarkCAMKoordeTreeBuild(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camkoorde.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _, err := net.BuildTree(i % pop.Ring.Len())
		if err != nil {
			b.Fatal(err)
		}
		if tree.Reached() != pop.Ring.Len() {
			b.Fatal("incomplete tree")
		}
	}
}

func BenchmarkCAMKoordeTreeBuildInto(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camkoorde.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := multicast.NewTree(pop.Ring.Len(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.BuildTreeInto(tree, i%pop.Ring.Len()); err != nil {
			b.Fatal(err)
		}
		if tree.Reached() != pop.Ring.Len() {
			b.Fatal("incomplete tree")
		}
	}
}

func BenchmarkCAMChordLookup(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camchord.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	space := pop.Ring.Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Lookup(i%pop.Ring.Len(), space.Reduce(uint64(i)*2654435761))
	}
}

func BenchmarkCAMKoordeLookup(b *testing.B) {
	pop := benchPopulation(b)
	net, err := camkoorde.New(pop.Ring, pop.Caps)
	if err != nil {
		b.Fatal(err)
	}
	space := pop.Ring.Space()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Lookup(i%pop.Ring.Len(), space.Reduce(uint64(i)*2654435761))
	}
}

// BenchmarkLiveMulticast measures an end-to-end multicast over the dynamic
// runtime (public API) on a 32-member group.
func BenchmarkLiveMulticast(b *testing.B) {
	net := NewNetwork()
	defer net.Close()
	opts := func() Options {
		return Options{Capacity: 5, Stabilize: -1, Fix: -1}
	}
	if _, err := net.Create("m0", opts()); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 32; i++ {
		if _, err := net.Join(fmt.Sprintf("m%d", i), "m0", opts()); err != nil {
			b.Fatal(err)
		}
		net.Settle(1)
	}
	net.Settle(3)
	src, err := net.Member("m7")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.MulticastContext(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
}
