package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func echoHandler(t *testing.T) Handler {
	t.Helper()
	return func(from, kind string, payload any) (any, error) {
		return payload, nil
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := NewNetwork(1)
	n.Register("b", echoHandler(t))
	resp, err := n.Call(context.Background(), "a", "b", "echo", 42)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 42 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestCallUnreachable(t *testing.T) {
	n := NewNetwork(1)
	if _, err := n.Call(context.Background(), "a", "ghost", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestUnregisterMakesUnreachable(t *testing.T) {
	n := NewNetwork(1)
	n.Register("b", echoHandler(t))
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("registered b: err = %v", err)
	}
	n.Unregister("b")
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestDropRate(t *testing.T) {
	n := NewNetwork(7)
	n.Register("b", echoHandler(t))
	n.SetDropRate(1)
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	n.SetDropRate(0)
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("err = %v after disabling drops", err)
	}
	calls, drops := n.Stats()
	if calls != 2 || drops != 1 {
		t.Fatalf("stats = (%d, %d), want (2, 1)", calls, drops)
	}
}

func TestDropRateClamped(t *testing.T) {
	n := NewNetwork(1)
	n.Register("b", echoHandler(t))
	n.SetDropRate(-3) // clamps to 0
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.SetDropRate(9) // clamps to 1
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrDropped) {
		t.Fatal("expected drop at rate 1")
	}
}

func TestPartition(t *testing.T) {
	n := NewNetwork(1)
	n.Register("a", echoHandler(t))
	n.Register("b", echoHandler(t))
	n.SetPartition("b", 1)
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	// Within the same partition calls work.
	n.SetPartition("a", 1)
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("same-partition call failed: %v", err)
	}
	n.HealPartitions()
	n.Register("c", echoHandler(t))
	if _, err := n.Call(context.Background(), "c", "b", "x", nil); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
}

func TestLatency(t *testing.T) {
	n := NewNetwork(1)
	n.Register("b", echoHandler(t))
	n.SetLatency(func(from, to string) time.Duration { return 20 * time.Millisecond })
	start := time.Now()
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
	n.SetLatency(nil)
	start = time.Now()
	_, _ = n.Call(context.Background(), "a", "b", "x", nil)
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("latency should be disabled: %v", elapsed)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	n := NewNetwork(1)
	sentinel := errors.New("handler failed")
	n.Register("b", func(from, kind string, payload any) (any, error) {
		return nil, sentinel
	})
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := NewNetwork(1)
	var count sync.Map
	n.Register("b", func(from, kind string, payload any) (any, error) {
		count.Store(payload, true)
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := n.Call(context.Background(), "a", "b", "x", i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 50; i++ {
		if _, ok := count.Load(i); !ok {
			t.Fatalf("call %d lost", i)
		}
	}
}
