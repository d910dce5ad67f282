package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDeadlineCtxStartsAtFirstDeadline: a per-RPC bound starts when a
// transport first reads Deadline, not when it is made. Until then Err
// reports only the parent, so an expired-looking bound reports nothing;
// the first read fixes the instant, every later read returns it, and Err
// then reports DeadlineExceeded once it passes. The parent's cancellation
// and an earlier parent deadline win.
func TestDeadlineCtxStartsAtFirstDeadline(t *testing.T) {
	dc := &deadlineCtx{Context: context.Background(), d: time.Nanosecond}
	time.Sleep(time.Millisecond)
	if err := dc.Err(); err != nil {
		t.Fatalf("Err() before any Deadline read = %v, want nil", err)
	}
	if dc.at.Load() != 0 {
		t.Fatal("Err() fixed the bound's instant")
	}

	first, ok := dc.Deadline()
	if !ok {
		t.Fatal("Deadline() reports no deadline")
	}
	time.Sleep(time.Millisecond)
	for i := 0; i < 3; i++ {
		if again, _ := dc.Deadline(); again != first {
			t.Fatalf("Deadline() read %d = %v, want the first read's %v", i+2, again, first)
		}
	}
	if err := dc.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() past the fixed bound = %v, want DeadlineExceeded", err)
	}

	parent, cancel := context.WithCancel(context.Background())
	dc = &deadlineCtx{Context: parent, d: time.Hour}
	cancel()
	if err := dc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() with a canceled parent = %v, want Canceled", err)
	}

	early := time.Now().Add(time.Minute)
	parent, cancel = context.WithDeadline(context.Background(), early)
	defer cancel()
	dc = &deadlineCtx{Context: parent, d: time.Hour}
	if got, _ := dc.Deadline(); !got.Equal(early) {
		t.Fatalf("Deadline() under an earlier parent deadline = %v, want %v", got, early)
	}
}

// TestDeadlineCtxConcurrentFirstRead: goroutines racing to read the first
// Deadline (a net.Dialer reads it from its own goroutines) agree on one
// instant. Run under -race.
func TestDeadlineCtxConcurrentFirstRead(t *testing.T) {
	for i := 0; i < 200; i++ {
		dc := &deadlineCtx{Context: context.Background(), d: time.Second}
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			got   [2]time.Time
		)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g], _ = dc.Deadline()
			}()
		}
		close(start)
		wg.Wait()
		if got[0] != got[1] {
			t.Fatalf("racing first reads fixed %v and %v, want one instant", got[0], got[1])
		}
	}
}

// ctxSpy records the context of every call it carries and whether the
// transport fixed its per-RPC bound.
type ctxSpy struct {
	Transport
	mu    sync.Mutex
	ctxs  []context.Context
	fixed []bool
}

func (s *ctxSpy) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	resp, err := s.Transport.Call(ctx, from, to, kind, payload)
	dc, ok := ctx.(*deadlineCtx)
	s.mu.Lock()
	s.ctxs = append(s.ctxs, ctx)
	s.fixed = append(s.fixed, ok && dc.at.Load() != 0)
	s.mu.Unlock()
	return resp, err
}

// TestDeadlineCtxPooledReset: an in-process call with no delay never fixes
// its bound, one over a delayed link does, and callWithin returns the
// bound to the pool emptied, so the next RPC that borrows it starts with
// no parent, no duration and no fixed instant.
func TestDeadlineCtxPooledReset(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(2, 4)
	a, b := c.live()[0], c.live()[1]
	spy := &ctxSpy{Transport: a.net}
	a.net = spy
	call := func() {
		t.Helper()
		if _, err := a.callWithin(context.Background(), time.Second, b.Self().Addr, kindPing, pingReq{}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	// A delayed link makes the mem transport read the deadline.
	c.net.SetLinkDelay("", b.Self().Addr, time.Millisecond)
	call()
	if len(spy.ctxs) != 2 {
		t.Fatalf("%d calls carried, want 2", len(spy.ctxs))
	}
	if spy.fixed[0] || !spy.fixed[1] {
		t.Errorf("bound fixed during the call: undelayed %t, delayed %t; want false, true", spy.fixed[0], spy.fixed[1])
	}
	for i, ctx := range spy.ctxs {
		dc, ok := ctx.(*deadlineCtx)
		if !ok {
			t.Fatalf("call %d carried a %T, want *deadlineCtx", i, ctx)
		}
		if dc.Context != nil || dc.d != 0 || dc.at.Load() != 0 {
			t.Errorf("call %d's returned bound = {parent %v, d %v, at %d}, want all zero", i, dc.Context, dc.d, dc.at.Load())
		}
	}
}

// TestDeadlineCtxDelayedLink: a link delayed past the bound still fails
// the call at about the bound, with DeadlineExceeded, and the caller holds
// the peer suspect.
func TestDeadlineCtxDelayedLink(t *testing.T) {
	const (
		bound = 50 * time.Millisecond
		delay = 2 * time.Second
	)
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(2, 4)
	a, b := c.live()[0], c.live()[1]
	addr := b.Self().Addr
	c.net.SetLinkDelay("", addr, delay)

	start := time.Now()
	_, err := a.callWithin(context.Background(), bound, addr, kindPing, pingReq{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call over the delayed link: err = %v, want DeadlineExceeded", err)
	}
	if elapsed < bound || elapsed > bound+delay/4 {
		t.Errorf("call failed after %v, want about the %v bound", elapsed, bound)
	}
	if !a.isSuspect(addr) {
		t.Error("the peer behind the delayed link was not marked suspect")
	}
}
