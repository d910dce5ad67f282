package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"camcast/internal/workload"
)

func TestForEachPointVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 41
		visits := make([]atomic.Int32, n)
		err := forEachPoint(workers, n, func(i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: point %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPointReturnsFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := forEachPoint(workers, 100, func(i int) error {
			calls.Add(1)
			if i == 3 {
				return fmt.Errorf("point %d: %w", i, sentinel)
			}
			// Every other point takes a little time, as a real sweep point
			// does. Zero-cost points let the other workers finish all 100
			// while the worker that drew point 3 waits to be scheduled.
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		// The pool abandons remaining points after a failure; with workers=1
		// exactly 4 calls happen, in parallel a few in-flight points may
		// still finish.
		if got := calls.Load(); got == 100 {
			t.Errorf("workers=%d: error did not stop the sweep", workers)
		}
	}
}

func TestForEachPointZeroPoints(t *testing.T) {
	if err := forEachPoint(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestCachedPopulationBuildsOnce(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	wcfg := workload.DefaultConfig(300, 7)
	wcfg.Space = Config{Bits: 11}.space()

	p1, err := CachedPopulation(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CachedPopulation(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same config should return the same population instance")
	}
	if got := PopulationBuilds(); got != 1 {
		t.Errorf("PopulationBuilds = %d, want 1", got)
	}

	other := wcfg
	other.Seed++
	if _, err := CachedPopulation(other); err != nil {
		t.Fatal(err)
	}
	if got := PopulationBuilds(); got != 2 {
		t.Errorf("PopulationBuilds after distinct config = %d, want 2", got)
	}

	ResetCaches()
	if got := PopulationBuilds(); got != 0 {
		t.Errorf("PopulationBuilds after reset = %d, want 0", got)
	}
	p3, err := CachedPopulation(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("reset should drop cached populations")
	}
}

func TestCachedPopulationConcurrentFirstUse(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	wcfg := workload.DefaultConfig(300, 11)
	wcfg.Space = Config{Bits: 11}.space()
	pops := make([]*Population, 8)
	err := forEachPoint(len(pops), len(pops), func(i int) error {
		p, err := CachedPopulation(wcfg)
		pops[i] = p
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pops[1:] {
		if p != pops[0] {
			t.Fatal("concurrent first use returned distinct populations")
		}
	}
	if got := PopulationBuilds(); got != 1 {
		t.Errorf("PopulationBuilds = %d, want 1", got)
	}
}

// engineConfig is deliberately small: the determinism suite regenerates
// several figures twice.
func engineConfig(parallelism int) Config {
	return Config{N: 900, Sources: 2, Seed: 1, Bits: 12, Parallelism: parallelism}
}

// TestParallelismByteIdenticalTSV is the engine's core regression: the
// rendered TSV of a figure must not depend on the worker count — neither
// through float reduction order nor through series assembly order.
func TestParallelismByteIdenticalTSV(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(Config) (FigureResult, error)
	}{
		{"figure6", Figure6},
		{"figure11", Figure11},
		{"ablation-lookup", AblationLookup},
		{"ablation-resilience", AblationResilience},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ResetCaches()
			seq, err := tc.fn(engineConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			// Fresh caches for the parallel run so overlay construction and
			// measurement both happen concurrently.
			ResetCaches()
			par, err := tc.fn(engineConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			ResetCaches()
			if seq.TSV() != par.TSV() {
				t.Errorf("%s: TSV differs between Parallelism=1 and Parallelism=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					tc.name, seq.TSV(), par.TSV())
			}
		})
	}
}

func TestMeasureTreesParallelMatchesSequential(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	pop, err := defaultPopulation(engineConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	builder, provision, err := pop.overlayAt(overlaySpec{sys: SystemCAMChord, mode: overlayOwnCaps})
	if err != nil {
		t.Fatal(err)
	}
	sources := PickSources(pop.Ring.Len(), 6, 42)
	seq, err := MeasureTrees(builder, pop.Bandwidth, provision, sources)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeasureTreesParallel(builder, pop.Bandwidth, provision, sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.AvgChildren != par.AvgChildren || seq.AvgPathLength != par.AvgPathLength ||
		seq.MaxDepth != par.MaxDepth || seq.Throughput != par.Throughput {
		t.Errorf("parallel metrics differ:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.DepthHist.Bins() != par.DepthHist.Bins() {
		t.Fatalf("histogram bins differ: %d vs %d", seq.DepthHist.Bins(), par.DepthHist.Bins())
	}
	for bin := 0; bin < seq.DepthHist.Bins(); bin++ {
		if seq.DepthHist.Count(bin) != par.DepthHist.Count(bin) {
			t.Errorf("histogram bin %d differs: %g vs %g", bin, seq.DepthHist.Count(bin), par.DepthHist.Count(bin))
		}
	}
}

func TestSpecAtTargetUnknownSystem(t *testing.T) {
	if _, err := specAtTarget(System("nope"), 700, 8); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestConfigValidateRejectsNegativeParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if _, err := Figure6(cfg); err == nil {
		t.Error("negative parallelism should fail validation")
	}
}
