package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camcast/internal/obsv"
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

// TestNetworkReconfigureUnderLoad runs calls while other goroutines
// register and unregister endpoints and flip partitions, link loss and
// fault plans. Every call must be counted once, and a call that starts
// after Unregister (Register) returns must see the endpoint gone (there).
func TestNetworkReconfigureUnderLoad(t *testing.T) {
	n := NewNetwork(3)
	stable := []string{"s0", "s1", "s2", "s3"}
	for _, addr := range stable {
		n.Register(addr, echoHandler(t))
	}
	ctx := context.Background()
	var made atomic.Uint64
	call := func(from, to string) error {
		made.Add(1)
		_, err := n.Call(ctx, from, to, "x", nil)
		return err
	}

	stop := make(chan struct{})
	var flippers sync.WaitGroup
	flip := func(f func(i int)) {
		flippers.Add(1)
		go func() {
			defer flippers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	flip(func(i int) {
		addr := fmt.Sprintf("churn%d", i%64)
		if i%2 == 0 {
			n.Register(addr, echoHandler(t))
		} else {
			n.Unregister(addr)
		}
	})
	flip(func(i int) { n.SetPartition("s1", i%2) })
	flip(func(i int) { n.SetLinkLoss("s2", "", float64(i%2)*0.5) })
	flip(func(i int) {
		if i%2 == 0 {
			n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{{Kind: FaultCrash, Addrs: []string{"s3"}}}})
		} else {
			n.SetFaultPlan(nil)
		}
	})

	var callers sync.WaitGroup
	for w := 0; w < 4; w++ {
		callers.Add(1)
		go func(w int) {
			defer callers.Done()
			for i := 0; i < 500; i++ {
				from := stable[(w+i)%len(stable)]
				to := stable[i%len(stable)]
				if i%5 == 0 {
					to = fmt.Sprintf("churn%d", i%64)
				}
				err := call(from, to)
				if err != nil && !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrPartitioned) && !errors.Is(err, ErrDropped) {
					t.Errorf("%s -> %s: unexpected error %v", from, to, err)
				}
			}
		}(w)
	}
	// No flipper touches s0 or the victims, so only registration decides
	// whether these calls reach their endpoint.
	for i := 0; i < 200; i++ {
		victim := fmt.Sprintf("victim%d", i%8)
		n.Register(victim, echoHandler(t))
		if err := call("s0", victim); err != nil {
			t.Fatalf("call after Register(%s): %v", victim, err)
		}
		n.Unregister(victim)
		if err := call("s0", victim); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call after Unregister(%s): err = %v, want ErrUnreachable", victim, err)
		}
	}
	callers.Wait()
	close(stop)
	flippers.Wait()
	if got, want := n.Calls(), made.Load(); got != want {
		t.Errorf("Calls() = %d, want %d calls made", got, want)
	}
}

// TestNetworkCallAllocs gates the in-process call path: a successful
// call allocates nothing, measured or not.
func TestNetworkCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	ctx := context.Background()
	var payload any = 7
	for _, reg := range []*obsv.Registry{nil, obsv.NewRegistry()} {
		n := NewNetwork(1)
		n.Instrument(reg)
		n.Register("b", echoHandler(t))
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := n.Call(ctx, "a", "b", "x", payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("instrumented=%t: %.1f allocs per call, want 0", reg != nil, allocs)
		}
	}
}
