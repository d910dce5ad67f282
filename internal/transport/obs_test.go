package transport

import (
	"context"
	"errors"
	"sync"
	"testing"

	"camcast/internal/obsv"
)

// TestTCPInstrumented drives an instrumented TCP pair and checks the
// registry observed the traffic: round-trip latencies, call/served counts,
// and at least one socket flush with a recorded batch size.
func TestTCPInstrumented(t *testing.T) {
	reg := obsv.NewRegistry()
	registerEchoPayload()

	srv, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(reg)
	defer srv.Close()
	srv.Register(srv.Addr(), func(from, kind string, payload any) (any, error) {
		if kind == "boom" {
			return nil, errors.New("handler failure")
		}
		return payload, nil
	})

	cli, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli.Instrument(reg)
	defer cli.Close()

	const calls = 32
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call(context.Background(), "cli", srv.Addr(), "echo", echoPayload{Value: 1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := cli.Call(context.Background(), "cli", srv.Addr(), "boom", echoPayload{}); err == nil {
		t.Fatal("handler error did not propagate")
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obsv.MetricRPCCalls]; got != calls+1 {
		t.Errorf("%s = %d, want %d", obsv.MetricRPCCalls, got, calls+1)
	}
	if got := snap.Counters[obsv.MetricRPCErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obsv.MetricRPCErrors, got)
	}
	if got := snap.Counters[obsv.MetricServerServed]; got != calls+1 {
		t.Errorf("%s = %d, want %d", obsv.MetricServerServed, got, calls+1)
	}
	lat := snap.Histograms[obsv.MetricRPCLatency]
	if lat.Count != calls+1 {
		t.Errorf("latency observations = %d, want %d", lat.Count, calls+1)
	}
	if lat.Sum <= 0 {
		t.Error("latency sum is zero")
	}
	flush := snap.Histograms[obsv.MetricFlushBatch]
	if flush.Count == 0 {
		t.Error("no flush batches observed")
	}
	if got := snap.Gauges[obsv.MetricRPCInflight]; got != 0 {
		t.Errorf("inflight gauge = %d after quiesce, want 0", got)
	}
}

// TestNetworkInstrumented checks the in-memory transport's sampled call
// metrics: every call is counted, and one in latencySamplePeriod is timed,
// chosen by call index. 130 calls time indices 0, 64 and 128; the one call
// to a missing endpoint is counted as an error whether timed or not.
func TestNetworkInstrumented(t *testing.T) {
	reg := obsv.NewRegistry()
	n := NewNetwork(1)
	n.Instrument(reg)
	n.Register("a", func(from, kind string, payload any) (any, error) { return payload, nil })

	const calls = 130
	for i := 0; i < calls; i++ {
		to := "a"
		if i == 77 {
			to = "gone"
		}
		_, err := n.Call(context.Background(), "b", to, "echo", 7)
		if (err != nil) != (to == "gone") {
			t.Fatalf("call %d to %s: err = %v", i, to, err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obsv.MetricRPCCalls]; got != calls {
		t.Errorf("%s = %d, want %d", obsv.MetricRPCCalls, got, calls)
	}
	if got := snap.Counters[obsv.MetricRPCErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obsv.MetricRPCErrors, got)
	}
	if got := snap.Histograms[obsv.MetricRPCLatency].Count; got != 3 {
		t.Errorf("latency observations = %d, want 3 (call indices 0, 64 and 128)", got)
	}
	if got := snap.Gauges[obsv.MetricRPCInflight]; got != 0 {
		t.Errorf("inflight gauge = %d after quiesce, want 0", got)
	}
}

// TestNetworkInflightDerived checks the read-time in-flight gauge: a
// snapshot taken inside a handler counts that call, one taken after it
// returns counts none.
func TestNetworkInflightDerived(t *testing.T) {
	reg := obsv.NewRegistry()
	n := NewNetwork(1)
	n.Instrument(reg)
	var during int64 = -1
	n.Register("a", func(from, kind string, payload any) (any, error) {
		during = reg.Snapshot().Gauges[obsv.MetricRPCInflight]
		return nil, nil
	})
	if _, err := n.Call(context.Background(), "b", "a", "x", nil); err != nil {
		t.Fatal(err)
	}
	if during != 1 {
		t.Errorf("inflight during the call = %d, want 1", during)
	}
	if got := reg.Snapshot().Gauges[obsv.MetricRPCInflight]; got != 0 {
		t.Errorf("inflight after the call = %d, want 0", got)
	}
}
