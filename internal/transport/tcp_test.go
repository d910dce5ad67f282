package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoPayload is the test payload most transport tests carry.
type echoPayload struct {
	Value int
}

// echoWireTag sits just under blobWireTag at the top of the user range so
// it can never collide with the runtime's registered wire types.
const echoWireTag byte = 0xF2

func (echoPayload) WireTag() byte { return echoWireTag }

func (p echoPayload) AppendWire(b []byte) []byte { return AppendVarint(b, int64(p.Value)) }

func decodeEchoPayload(b []byte) (any, error) {
	r := NewWireReader(b)
	p := echoPayload{Value: int(r.Varint())}
	return p, r.Finish()
}

var echoPayloadOnce sync.Once

func registerEchoPayload() {
	echoPayloadOnce.Do(func() { RegisterWireDecoder(echoWireTag, decodeEchoPayload) })
}

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	registerEchoPayload()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		p, ok := payload.(echoPayload)
		if !ok {
			t.Errorf("payload type %T", payload)
		}
		return echoPayload{Value: p.Value + 1}, nil
	})
	resp, err := a.Call(context.Background(), "client", b.Addr(), "echo", echoPayload{Value: 41})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(echoPayload).Value; got != 42 {
		t.Fatalf("resp = %d", got)
	}
}

func TestTCPLocalShortCircuit(t *testing.T) {
	a, _ := newTCPPair(t)
	a.Register("local-endpoint", func(from, kind string, payload any) (any, error) {
		return echoPayload{Value: 7}, nil
	})
	resp, err := a.Call(context.Background(), "me", "local-endpoint", "x", echoPayload{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoPayload).Value != 7 {
		t.Fatal("local call failed")
	}
}

func TestTCPHandlerError(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(context.Background(), "client", b.Addr(), "x", echoPayload{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// A handler error is not a transport failure.
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("handler error reported as unreachable: %v", err)
	}
}

func TestTCPUnknownEndpoint(t *testing.T) {
	a, b := newTCPPair(t)
	_, err := a.Call(context.Background(), "client", b.Addr(), "x", echoPayload{}) // nothing registered at b
	if err == nil || !strings.Contains(err.Error(), "no endpoint") {
		t.Fatalf("err = %v", err)
	}
	// The host answered, but the endpoint is gone: the same ErrUnreachable
	// the in-memory network reports, so callers detect it the same way.
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// TestTCPUnencodablePayload checks that a payload type with no binary wire
// encoding fails only its own call — in either direction — and leaves the
// pooled connection serving the next call.
func TestTCPUnencodablePayload(t *testing.T) {
	a, b := newTCPPair(t)
	type unregistered struct{ X int }
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		if kind == "bad-response" {
			return unregistered{X: 1}, nil
		}
		return echoPayload{Value: payload.(echoPayload).Value + 1}, nil
	})
	call := func(kind string, payload any) (any, error) {
		return a.Call(context.Background(), "client", b.Addr(), kind, payload)
	}
	if _, err := call("echo", echoPayload{Value: 1}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	conn := a.conns[b.Addr()]
	a.mu.Unlock()

	_, err := call("echo", unregistered{X: 1})
	if err == nil || !strings.Contains(err.Error(), "no binary wire encoding") {
		t.Fatalf("unregistered request payload: err = %v, want an encode failure", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("an encode failure marked the peer unreachable: %v", err)
	}
	_, err = call("bad-response", echoPayload{})
	if err == nil || !strings.Contains(err.Error(), "encode response") {
		t.Fatalf("unregistered response payload: err = %v, want an encode-response error", err)
	}

	resp, err := call("echo", echoPayload{Value: 41})
	if err != nil {
		t.Fatalf("call after encode failures: %v", err)
	}
	if got := resp.(echoPayload).Value; got != 42 {
		t.Fatalf("resp = %d, want 42", got)
	}
	a.mu.Lock()
	after := a.conns[b.Addr()]
	a.mu.Unlock()
	if after != conn {
		t.Fatal("an encode failure replaced the pooled connection")
	}
}

// TestTCPUnreachable: a call to a dead peer fails with ErrUnreachable, and
// so does every later one — the transport keeps no record of the failure
// that could change its answer.
func TestTCPUnreachable(t *testing.T) {
	registerEchoPayload()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.DialTimeout = 200 * time.Millisecond

	dead := "127.0.0.1:1" // nothing listens here
	for i := 0; i < 2; i++ {
		if _, err := a.Call(context.Background(), "client", dead, "x", echoPayload{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: err = %v, want ErrUnreachable", i, err)
		}
	}
}

func TestTCPUnregister(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		return echoPayload{}, nil
	})
	if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{}); err != nil {
		t.Fatal(err)
	}
	b.Unregister(b.Addr())
	if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{}); err == nil {
		t.Fatal("call to unregistered endpoint should fail")
	}
	if _, err := b.Call(context.Background(), "c", b.Addr(), "x", echoPayload{}); err == nil {
		t.Fatal("local call to unregistered endpoint should fail")
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	got := map[int]bool{}
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		p := payload.(echoPayload)
		mu.Lock()
		got[p.Value] = true
		mu.Unlock()
		return p, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{Value: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(got) != 32 {
		t.Fatalf("received %d/32 calls", len(got))
	}
}

func TestTCPNestedCalls(t *testing.T) {
	// b's handler synchronously calls back into a — the pattern multicast
	// forwarding produces. Distinct sockets per direction must prevent
	// deadlock.
	a, b := newTCPPair(t)
	a.Register(a.Addr(), func(from, kind string, payload any) (any, error) {
		return echoPayload{Value: 5}, nil
	})
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		resp, err := b.Call(context.Background(), b.Addr(), a.Addr(), "inner", echoPayload{})
		if err != nil {
			return nil, err
		}
		return echoPayload{Value: resp.(echoPayload).Value * 2}, nil
	})
	resp, err := a.Call(context.Background(), a.Addr(), b.Addr(), "outer", echoPayload{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoPayload).Value != 10 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestTCPCloseIdempotentAndRejects(t *testing.T) {
	registerEchoPayload()
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
	if _, err := a.Call(context.Background(), "c", "anywhere", "x", echoPayload{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestTCPHungPeerDeadline verifies the per-RPC deadline: a peer that
// accepts connections but never responds must fail the call within
// RPCTimeout instead of wedging the pooled connection forever, and the
// transport must stay usable for healthy peers afterwards.
func TestTCPHungPeerDeadline(t *testing.T) {
	a, b := newTCPPair(t)
	a.RPCTimeout = 100 * time.Millisecond
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		return payload, nil
	})

	// A raw listener that accepts and then reads nothing and writes nothing.
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	for i := 0; i < 2; i++ { // twice: the dead conn must not be pooled
		start := time.Now()
		_, err = a.Call(context.Background(), "client", hung.Addr().String(), "x", echoPayload{Value: i})
		if err == nil {
			t.Fatal("call to hung peer succeeded")
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("call %d to hung peer took %v, want ~RPCTimeout", i, d)
		}
	}

	// The transport is not wedged: healthy peers still answer.
	resp, err := a.Call(context.Background(), "client", b.Addr(), "x", echoPayload{Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := resp.(echoPayload); !ok || p.Value != 7 {
		t.Fatalf("resp = %#v", resp)
	}
}

// TestTCPCallerDeadlineWins verifies that a context deadline sooner than
// RPCTimeout bounds the exchange.
func TestTCPCallerDeadlineWins(t *testing.T) {
	a, _ := newTCPPair(t)
	a.RPCTimeout = 5 * time.Second

	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := a.Call(ctx, "client", hung.Addr().String(), "x", echoPayload{}); err == nil {
		t.Fatal("call should have failed")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("caller deadline did not bound the call (took %v)", d)
	}
}
