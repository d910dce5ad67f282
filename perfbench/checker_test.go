package main

import (
	"reflect"
	"sync"
	"testing"
)

func payloadFor(i int) []byte {
	p := make([]byte, indexBytes+4)
	stamp(p, i)
	return p
}

func TestCheckerCleanRun(t *testing.T) {
	c := newChecker(3, 100)
	for i := 0; i < 70; i++ {
		for m := 0; m < 3; m++ {
			c.deliver(m, payloadFor(i), int64(i*10+m))
		}
		if !c.complete(i) {
			t.Fatalf("message %d incomplete after every member delivered", i)
		}
		if got, want := c.lastDelivery(i), int64(i*10+2); got != want {
			t.Fatalf("message %d last delivery %d, want %d", i, got, want)
		}
	}
	v := c.verify(70)
	if !v.OK(3) || v.Ratio(3) != 1 || v.Distinct != 210 {
		t.Fatalf("clean run verdict %v ratio %v", v, v.Ratio(3))
	}
}

func TestCheckerFlagsDuplicateAndGap(t *testing.T) {
	c := newChecker(3, 4)
	// Message 0 reaches every member, member 1 twice.
	for _, m := range []int{0, 1, 1, 2} {
		c.deliver(m, payloadFor(0), 1)
	}
	// Message 1 never reaches member 1.
	c.deliver(0, payloadFor(1), 2)
	c.deliver(2, payloadFor(1), 3)

	if c.complete(1) {
		t.Fatal("message 1 complete with a member missing")
	}
	v := c.verify(2)
	if v.OK(3) {
		t.Fatalf("verdict %v passed a duplicate and a gap", v)
	}
	if v.Duplicates != 1 || v.Failed != 2 || v.Distinct != 5 {
		t.Fatalf("verdict %v: want 1 duplicate, 2 failed messages, 5 distinct deliveries", v)
	}
	if want := []gap{{Member: 1, Msg: 1}}; !reflect.DeepEqual(v.Gaps, want) {
		t.Fatalf("gaps %v, want %v", v.Gaps, want)
	}
	if got, want := v.Ratio(3), 5.0/6; got != want {
		t.Fatalf("ratio %v, want %v", got, want)
	}
}

func TestCheckerCountsErrorsAndStrays(t *testing.T) {
	c := newChecker(2, 4)
	c.deliver(0, payloadFor(0), 1)
	c.deliver(1, payloadFor(0), 1)
	c.fail(0) // the Multicast call returned an error
	c.deliver(0, []byte{1, 2}, 1)
	c.deliver(0, payloadFor(9), 1)
	v := c.verify(1)
	if v.OK(2) || v.Failed != 1 || v.Strays != 2 {
		t.Fatalf("verdict %v: want the failed message and two strays counted", v)
	}
}

func TestCheckerConcurrentDeliveries(t *testing.T) {
	const members, msgs = 16, 200
	c := newChecker(members, msgs)
	var wg sync.WaitGroup
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				c.deliver(m, payloadFor(i), int64(m))
			}
		}(m)
	}
	wg.Wait()
	v := c.verify(msgs)
	if !v.OK(members) {
		t.Fatalf("verdict %v", v)
	}
	for i := 0; i < msgs; i++ {
		if got := c.lastDelivery(i); got != members-1 {
			t.Fatalf("message %d last delivery %d, want %d", i, got, members-1)
		}
	}
}
