package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultEventWindows(t *testing.T) {
	e := FaultEvent{Kind: FaultCrash, At: 10, Until: 20}
	for _, tc := range []struct {
		step uint64
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := e.active(tc.step); got != tc.want {
			t.Errorf("active(%d) = %v, want %v", tc.step, got, tc.want)
		}
	}
	// Until == 0 never heals.
	forever := FaultEvent{Kind: FaultCrash, At: 5}
	if !forever.active(1 << 40) {
		t.Error("event with Until=0 should stay active forever")
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.CrashedAt("a", 0) {
		t.Error("nil plan reported a crash")
	}
	if _, ok := p.partitionAt("a", 0); ok {
		t.Error("nil plan reported a partition")
	}
	if p.lossAt("a", "b", 0) != 0 || p.delayAt("a", "b", 0) != 0 {
		t.Error("nil plan reported loss or delay")
	}
}

func TestFaultPlanCrashWindow(t *testing.T) {
	n := NewNetwork(1)
	n.Register("a", echoHandler(t))
	n.Register("b", echoHandler(t))
	// The first call is index 0; crash b for calls [1, 3).
	n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrash, At: 1, Until: 3, Addrs: []string{"b"}},
	}})

	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("call 0 (before window): %v", err)
	}
	// Calls 1 and 2: b is crashed, in both directions.
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call 1 err = %v, want ErrUnreachable", err)
	}
	if _, err := n.Call(context.Background(), "b", "a", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call 2 (from crashed) err = %v, want ErrUnreachable", err)
	}
	// Call 3: healed.
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("call 3 (after heal): %v", err)
	}
}

func TestFaultPlanPartitionWindow(t *testing.T) {
	n := NewNetwork(1)
	n.Register("a", echoHandler(t))
	n.Register("b", echoHandler(t))
	n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{
		{Kind: FaultPartition, At: 0, Until: 2, Addrs: []string{"b"}, Partition: 1},
	}})
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	if _, err := n.Call(context.Background(), "b", "a", "x", nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("reverse err = %v, want ErrPartitioned", err)
	}
	// Window over: same partition again.
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestFaultPlanBurstLoss(t *testing.T) {
	n := NewNetwork(42)
	n.Register("b", echoHandler(t))
	n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{
		{Kind: FaultLoss, At: 0, Until: 200, Rate: 0.5},
	}})
	dropped := 0
	for i := 0; i < 200; i++ {
		if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
			if !errors.Is(err, ErrDropped) {
				t.Fatalf("err = %v, want ErrDropped", err)
			}
			dropped++
		}
	}
	if dropped < 60 || dropped > 140 {
		t.Errorf("dropped %d of 200 at rate 0.5; schedule looks broken", dropped)
	}
	// Window healed: everything goes through.
	for i := 0; i < 50; i++ {
		if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
			t.Fatalf("post-heal call failed: %v", err)
		}
	}
}

func TestFaultPlanLinkDelayAndDeadline(t *testing.T) {
	n := NewNetwork(1)
	n.Register("b", echoHandler(t))
	n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{
		{Kind: FaultDelay, At: 0, From: "a", To: "b", Delay: 200 * time.Millisecond},
	}})

	// The delay applies only to the matching link.
	start := time.Now()
	if _, err := n.Call(context.Background(), "c", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("unmatched link delayed by %v", d)
	}

	// A context deadline interrupts the injected delay.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := n.Call(ctx, "a", "b", "x", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Errorf("deadline did not interrupt the delay (took %v)", d)
	}

	// Without a deadline the call waits out the injected delay.
	start = time.Now()
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("delayed link completed in %v, want >= 200ms", d)
	}
}

func TestFaultPlanDeterministicDrops(t *testing.T) {
	run := func() []bool {
		n := NewNetwork(7)
		n.Register("b", echoHandler(t))
		n.SetFaultPlan(&FaultPlan{Events: []FaultEvent{
			{Kind: FaultLoss, At: 0, Rate: 0.4},
		}})
		out := make([]bool, 100)
		for i := range out {
			_, err := n.Call(context.Background(), "a", "b", "x", nil)
			out[i] = err == nil
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d differed between identical seeded runs", i)
		}
	}
}
