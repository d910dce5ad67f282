package churnsim

import (
	"testing"

	"camcast/internal/runtime"
)

func baseConfig(mode runtime.Mode) Config {
	capLo := 3
	if mode == runtime.ModeCAMKoorde {
		capLo = 4
	}
	return Config{
		Mode:              mode,
		Initial:           24,
		Events:            60,
		JoinFrac:          0.5,
		FailFrac:          0.5,
		CapacityLo:        capLo,
		CapacityHi:        8,
		Bits:              16,
		Seed:              1,
		MaintenanceBudget: 2,
		ProbeEvery:        10,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few members", func(c *Config) { c.Initial = 1 }},
		{"negative events", func(c *Config) { c.Events = -1 }},
		{"koorde capacity too small", func(c *Config) { c.Mode = runtime.ModeCAMKoorde; c.CapacityLo = 3 }},
		{"chord capacity too small", func(c *Config) { c.CapacityLo = 1 }},
		{"inverted range", func(c *Config) { c.CapacityHi = c.CapacityLo - 1 }},
		{"negative budget", func(c *Config) { c.MaintenanceBudget = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(runtime.ModeCAMChord)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestChurnCAMChordWithMaintenance(t *testing.T) {
	res, err := Run(baseConfig(runtime.ModeCAMChord))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 60 || res.Probes < 6 {
		t.Fatalf("result bookkeeping wrong: %+v", res)
	}
	if res.Joins+res.Leaves+res.Crashes != res.Events {
		t.Fatalf("event counts inconsistent: %+v", res)
	}
	if res.MeanDelivery < 0.95 {
		t.Errorf("mean delivery %.3f under churn with budget 2; expected near-complete", res.MeanDelivery)
	}
	if res.RingCorrect < 0.9 {
		t.Errorf("ring correctness %.2f; stabilization should keep the ring nearly exact", res.RingCorrect)
	}
}

func TestChurnCAMKoordeWithMaintenance(t *testing.T) {
	res, err := Run(baseConfig(runtime.ModeCAMKoorde))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDelivery < 0.95 {
		t.Errorf("mean delivery %.3f under churn with budget 2", res.MeanDelivery)
	}
}

// With zero maintenance budget the overlay decays; on-demand lookups keep
// CAM-Chord delivering, but the runs must still complete and report sane
// ratios.
func TestChurnNoMaintenance(t *testing.T) {
	cfg := baseConfig(runtime.ModeCAMChord)
	cfg.MaintenanceBudget = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.DeliveryRatios {
		if r < 0 || r > 1 {
			t.Fatalf("probe %d ratio %g out of range", i, r)
		}
	}
	if res.TableFaults == 0 {
		t.Error("zero-budget churn should force on-demand table repairs")
	}
}

// Delivery under fast churn should not beat delivery under slow churn.
func TestMaintenanceBudgetHelps(t *testing.T) {
	slow := baseConfig(runtime.ModeCAMChord)
	slow.MaintenanceBudget = 3
	fast := baseConfig(runtime.ModeCAMChord)
	fast.MaintenanceBudget = 0

	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.MeanDelivery > slowRes.MeanDelivery+0.02 {
		t.Errorf("fast churn delivery %.3f should not beat slow churn %.3f",
			fastRes.MeanDelivery, slowRes.MeanDelivery)
	}
	if fastRes.RingCorrect > slowRes.RingCorrect {
		t.Errorf("fast churn ring correctness %.2f should not beat slow churn %.2f",
			fastRes.RingCorrect, slowRes.RingCorrect)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, err := Run(baseConfig(runtime.ModeCAMChord))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(runtime.ModeCAMChord))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDelivery != b.MeanDelivery || a.Joins != b.Joins || a.Crashes != b.Crashes {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

// TestChurnTCPTransport runs a small churn workload with every member on
// its own loopback TCP listener, exercising the multiplexed transport and
// binary codec under joins, leaves, and crashes with real sockets. Scaled
// down from the mem-transport runs because each event pays real dial and
// suspicion latencies. The subtest is named for the codec it runs, the
// only one the transport has.
func TestChurnTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short")
	}
	t.Run("binary", func(t *testing.T) {
		cfg := baseConfig(runtime.ModeCAMChord)
		cfg.Transport = "tcp"
		cfg.Initial = 8
		cfg.Events = 12
		cfg.ProbeEvery = 4
		cfg.MaintenanceBudget = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Joins+res.Leaves+res.Crashes != res.Events {
			t.Fatalf("event counts inconsistent: %+v", res)
		}
		// Real sockets on a loaded CI box add genuine timing jitter
		// (dial latency, suspicion windows), so the bar is lower than
		// the deterministic mem-transport runs assert.
		if res.MeanDelivery < 0.7 {
			t.Errorf("mean delivery %.3f over TCP with budget 3; expected mostly-complete", res.MeanDelivery)
		}
	})
}

func TestValidateTransport(t *testing.T) {
	cfg := baseConfig(runtime.ModeCAMChord)
	cfg.Transport = "carrier-pigeon"
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for unknown transport")
	}
}
