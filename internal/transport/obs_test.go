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

// TestNetworkInstrumented checks the in-memory transport records the same
// call metrics.
func TestNetworkInstrumented(t *testing.T) {
	reg := obsv.NewRegistry()
	n := NewNetwork(1)
	n.Instrument(reg)
	n.Register("a", func(from, kind string, payload any) (any, error) { return payload, nil })

	if _, err := n.Call(context.Background(), "b", "a", "echo", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(context.Background(), "b", "gone", "echo", 7); err == nil {
		t.Fatal("call to unregistered endpoint succeeded")
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obsv.MetricRPCCalls]; got != 2 {
		t.Errorf("%s = %d, want 2", obsv.MetricRPCCalls, got)
	}
	if got := snap.Counters[obsv.MetricRPCErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obsv.MetricRPCErrors, got)
	}
	if got := snap.Histograms[obsv.MetricRPCLatency].Count; got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
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
