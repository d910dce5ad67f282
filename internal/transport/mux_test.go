package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPPipelinedOutOfOrder is the regression test for head-of-line
// blocking: two pipelined requests to one peer, where the first one hits a
// slow handler, must complete out of order — the fast second request must
// not wait for the slow first one.
func TestTCPPipelinedOutOfOrder(t *testing.T) {
	a, b := newTCPPair(t)
	release := make(chan struct{})
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		if kind == "slow" {
			<-release
		}
		return payload, nil
	})

	slowDone := make(chan error, 1)
	slowStarted := make(chan struct{})
	go func() {
		close(slowStarted)
		_, err := a.Call(context.Background(), "c", b.Addr(), "slow", echoPayload{Value: 1})
		slowDone <- err
	}()
	<-slowStarted
	time.Sleep(10 * time.Millisecond) // let the slow request reach the peer

	// The fast call must complete while the slow one is still parked.
	fastStart := time.Now()
	if _, err := a.Call(context.Background(), "c", b.Addr(), "fast", echoPayload{Value: 2}); err != nil {
		t.Fatal(err)
	}
	fastElapsed := time.Since(fastStart)

	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before it was released (err=%v)", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if fastElapsed > 2*time.Second {
		t.Fatalf("fast call took %v behind a slow one: head-of-line blocking", fastElapsed)
	}
}

// TestTCPPipelineDepth verifies that N concurrent calls genuinely share the
// socket with N RPCs in flight: with a handler that parks until all N
// arrive, the batch completes only if every request was decoded while the
// others were still pending.
func TestTCPPipelineDepth(t *testing.T) {
	const n = 16
	a, b := newTCPPair(t)
	var arrived atomic.Int32
	all := make(chan struct{})
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		if arrived.Add(1) == n {
			close(all)
		}
		<-all // every handler waits for the n-th request to arrive
		return payload, nil
	})

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := a.Call(ctx, "c", b.Addr(), "park", echoPayload{Value: i})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("pipelined call failed: %v (pipeline depth < %d?)", err, n)
		}
	}
}

// TestTCPCallRaceWithClose stresses Call/Close interleavings: many
// goroutines calling one destination while Close fires mid-flight. Every
// call must either succeed or fail cleanly — no hangs, no panics — and the
// transport must shut down completely. Run with -race.
func TestTCPCallRaceWithClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		a, err := NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		registerEchoPayload()
		b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
			return payload, nil
		})

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, err := a.Call(ctx, "c", b.Addr(), "x", echoPayload{Value: i})
					cancel()
					if err != nil {
						return // closed mid-flight; expected
					}
				}
			}(g)
		}
		close(start)
		// Close both ends while calls are in flight; alternate which side
		// goes first so both teardown orders are exercised.
		if round%2 == 0 {
			a.Close()
			b.Close()
		} else {
			b.Close()
			a.Close()
		}
		wg.Wait()

		if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("call after close = %v, want ErrClosed", err)
		}
	}
}

// TestTCPBadPreambleRejected verifies the version handshake: a connection
// that does not open with the magic/version preamble is dropped without
// disturbing the transport.
func TestTCPBadPreambleRejected(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		return payload, nil
	})

	// A raw dialer speaking garbage gets disconnected.
	nc, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("peer answered a garbage preamble instead of dropping it")
	}

	// The real transport still works.
	if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{Value: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPHandlerErrorNoPayloadLeak verifies error responses round-trip the
// message and nothing else.
func TestTCPHandlerErrorKeepsConn(t *testing.T) {
	a, b := newTCPPair(t)
	calls := 0
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		calls++
		if calls%2 == 1 {
			return nil, errors.New("odd call rejected")
		}
		return payload, nil
	})
	for i := 0; i < 6; i++ {
		_, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{Value: i})
		if i%2 == 0 {
			if err == nil || !strings.Contains(err.Error(), "odd call rejected") {
				t.Fatalf("call %d: err = %v", i, err)
			}
			if errors.Is(err, ErrUnreachable) {
				t.Fatalf("call %d: handler error reported as unreachable: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}
