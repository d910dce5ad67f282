package transport

import (
	"context"
	"net"
	goruntime "runtime"
	"sync"
	"testing"
	"time"
)

// hungListener accepts connections and never answers; returns its address.
func hungListener(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	return l.Addr().String()
}

// TestTCPSweeperExpiresAcrossConns: one shared sweeper enforces deadlines
// on many connections at once — concurrent calls to several hung peers all
// time out near RPCTimeout, none serialized behind another's expiry.
func TestTCPSweeperExpiresAcrossConns(t *testing.T) {
	registerEchoPayload()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.RPCTimeout = 100 * time.Millisecond

	peers := make([]string, 5)
	for i := range peers {
		peers[i] = hungListener(t)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for i, addr := range peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			_, errs[i] = a.Call(context.Background(), "client", addr, "x", echoPayload{Value: i})
		}(i, addr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d to hung peer succeeded", i)
		}
	}
	if elapsed > time.Second {
		t.Fatalf("5 concurrent hung calls took %v; sweeper should expire them together near RPCTimeout", elapsed)
	}
}

// TestTCPSweeperGoroutineFootprint: deadline enforcement costs one
// goroutine per transport, not one per connection. (Each live connection
// still owns a read loop — that is the socket's cost, not the sweeper's.)
func TestTCPSweeperGoroutineFootprint(t *testing.T) {
	registerEchoPayload()
	const peers = 8
	servers := make([]*TCP, peers)
	for i := range servers {
		s, err := NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Register(s.Addr(), func(from, kind string, payload any) (any, error) {
			return payload, nil
		})
		servers[i] = s
	}

	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Open a pooled connection (with a registered deadline) to every peer.
	for _, s := range servers {
		if _, err := a.Call(context.Background(), "client", s.Addr(), "x", echoPayload{Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	during := goruntime.NumGoroutine()

	// Close must quiesce the sweeper along with everything else.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() >= during && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh transport that never dials starts no sweeper goroutine.
	before := goruntime.NumGoroutine()
	idle, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// One goroutine for the accept loop is expected; the sweeper is lazy.
	if got := goruntime.NumGoroutine(); got > before+1 {
		t.Fatalf("idle transport started %d goroutines, want 1 (accept loop only)", got-before)
	}
}
