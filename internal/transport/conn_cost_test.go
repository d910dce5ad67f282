package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		client.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// TestFrameWriterAllocs gates the request write path on a real socket: an
// inline request whose payload rides in a blob — head buffered, payload
// bytes gathered into one writev — allocates nothing once the writer's
// buffers are warm.
func TestFrameWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	registerBlobTestPayload()
	client, server := loopbackPair(t)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, server)
	}()
	w := newFrameWriter(client, func() time.Duration { return 10 * time.Second }, 0, &instruments{})
	blob := BlobFrom(make([]byte, 1<<10))
	defer blob.Release()
	var payload any = blobTestPayload{Key: "k", Data: blob.Bytes(), blob: blob}

	write := func() {
		if err := w.writeRequest(1, 0, "from", "to", "kind", payload, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		write() // warm the writer's buffers and the poller's iovec cache
	}
	if allocs := testing.AllocsPerRun(500, write); allocs != 0 {
		t.Errorf("inline blob request: %.2f allocs per write, want 0", allocs)
	}
	w.close()
	client.Close()
	<-drained
}

// deadlineCountConn counts SetWriteDeadline calls on a capturing conn.
type deadlineCountConn struct {
	captureConn
	sets int
}

func (c *deadlineCountConn) SetWriteDeadline(time.Time) error {
	c.sets++
	return nil
}

// TestFrameWriterLazyDeadline verifies that back-to-back batches share one
// armed write deadline instead of re-arming the socket's timer per batch.
func TestFrameWriterLazyDeadline(t *testing.T) {
	conn := &deadlineCountConn{}
	w := newFrameWriter(conn, func() time.Duration { return time.Minute }, 0, &instruments{})
	defer w.close()
	for i := 0; i < 100; i++ {
		if err := w.writeRequest(uint64(i), 0, "from", "to", "kind", nil, true); err != nil {
			t.Fatal(err)
		}
	}
	if conn.sets != 1 {
		t.Errorf("100 batches set the write deadline %d times, want 1", conn.sets)
	}
}

// TestTCPStalledPeerWriteDeadline runs a writer into a peer that never
// reads: the socket buffers fill, and the blocked write must fail by its
// lazily armed deadline — between RPCTimeout and 1.5 × RPCTimeout after it
// started — failing every call on the connection as ErrUnreachable and
// tearing the connection down.
func TestTCPStalledPeerWriteDeadline(t *testing.T) {
	registerBlobTestPayload()
	a, _ := newTCPPair(t)
	const timeout = 200 * time.Millisecond
	a.RPCTimeout = timeout

	// Accepts and never reads; holds its conns until the test ends.
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := stalled.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	defer func() {
		stalled.Close()
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()
	to := stalled.Addr().String()

	// Establish the connection so the timed call below starts writing at
	// once; this call itself times out unanswered.
	if _, err := a.Call(context.Background(), "c", to, "x", echoPayload{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("warm-up call: err = %v, want ErrUnreachable", err)
	}

	// 16 MiB outruns loopback's send buffer plus the peer's unread
	// receive window, so the write blocks until its deadline.
	big := blobTestPayload{Key: "big", Data: make([]byte, 16<<20)}
	const followers = 4
	errs := make(chan error, followers)
	start := time.Now()
	bigErr := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "c", to, "big", big)
		bigErr <- err
	}()
	for i := 0; i < followers; i++ {
		go func(i int) {
			time.Sleep(20 * time.Millisecond) // queue behind the blocked write
			_, err := a.Call(context.Background(), "c", to, "small", echoPayload{Value: i})
			errs <- err
		}(i)
	}
	err = <-bigErr
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUnreachable) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked write: err = %v, want ErrUnreachable from the write deadline", err)
	}
	// Scheduling slack on a loaded machine only ever delays the failure.
	if elapsed < timeout || elapsed > timeout*3/2+200*time.Millisecond {
		t.Errorf("blocked write failed after %v, want within [%v, %v] (+ slack)", elapsed, timeout, timeout*3/2)
	}
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, ErrUnreachable) {
			t.Errorf("queued call: err = %v, want ErrUnreachable", err)
		}
	}
	if n := a.ConnCount(); n != 0 {
		t.Errorf("ConnCount after the failed write = %d, want 0 (connection torn down)", n)
	}
}

// patterned returns n bytes that differ per seed, so a frame spliced from
// the wrong offsets shows.
func patterned(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// dataLenFor returns the payload length whose frame, as sized by frameLen,
// is exactly target wire bytes (length prefix included).
func dataLenFor(t *testing.T, target int, frameLen func(n int) int) int {
	t.Helper()
	n := target - frameLen(0)
	for n > 0 && frameLen(n) > target {
		n--
	}
	if frameLen(n) != target {
		t.Fatalf("no payload length gives a %d-byte frame", target)
	}
	return n
}

// TestTCPFrameSizes carries frames at the read-buffer size, one byte over
// it, and far over it, as requests and as responses, one at a time and 16
// in flight: every frame must arrive intact whether it fits the buffered
// bytes or is read straight into its blob.
func TestTCPFrameSizes(t *testing.T) {
	registerBlobTestPayload()
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) {
		p, ok := payload.(blobTestPayload)
		if !ok {
			return nil, fmt.Errorf("payload %T", payload)
		}
		switch kind {
		case "sink": // check the request, answer small
			var n, seed int
			if _, err := fmt.Sscanf(p.Key, "%d/%d", &n, &seed); err != nil {
				return nil, err
			}
			if string(p.Data) != string(patterned(n, seed)) {
				return nil, errors.New("request payload corrupted")
			}
			return nil, nil
		case "gen": // answer with the requested payload
			var n, seed int
			if _, err := fmt.Sscanf(p.Key, "%d/%d", &n, &seed); err != nil {
				return nil, err
			}
			return blobTestPayload{Key: p.Key, Data: patterned(n, seed)}, nil
		}
		return nil, fmt.Errorf("kind %q", kind)
	})

	type sized struct{ req, resp int }
	var cases []sized
	for _, target := range []int{readBufSize, readBufSize + 1, 256 << 10} {
		req := dataLenFor(t, target, func(n int) int {
			body, err := appendRequestBody(nil, 1, DefaultGroup, "c", b.Addr(), "sink",
				blobTestPayload{Key: fmt.Sprintf("%d/%d", n, 0), Data: make([]byte, n)})
			if err != nil {
				t.Fatal(err)
			}
			return 4 + len(body)
		})
		resp := dataLenFor(t, target, func(n int) int {
			body, err := appendResponseBody(nil, 1, DefaultGroup, "", 0,
				blobTestPayload{Key: fmt.Sprintf("%d/%d", n, 0), Data: make([]byte, n)})
			if err != nil {
				t.Fatal(err)
			}
			return 4 + len(body)
		})
		cases = append(cases, sized{req, resp})
	}

	// seed stays a single digit so the key's length, and with it the
	// frame size, does not depend on it.
	exchange := func(c sized, seed int) error {
		key := fmt.Sprintf("%d/%d", c.req, seed)
		if _, err := a.Call(context.Background(), "c", b.Addr(), "sink",
			blobTestPayload{Key: key, Data: patterned(c.req, seed)}); err != nil {
			return fmt.Errorf("request of %d payload bytes: %w", c.req, err)
		}
		key = fmt.Sprintf("%d/%d", c.resp, seed)
		resp, err := a.Call(context.Background(), "c", b.Addr(), "gen", blobTestPayload{Key: key})
		if err != nil {
			return fmt.Errorf("response of %d payload bytes: %w", c.resp, err)
		}
		if p, ok := resp.(blobTestPayload); !ok || string(p.Data) != string(patterned(c.resp, seed)) {
			return fmt.Errorf("response of %d payload bytes corrupted", c.resp)
		}
		return nil
	}

	for _, c := range cases {
		if err := exchange(c, 1); err != nil {
			t.Fatalf("sequential: %v", err)
		}
	}

	const inFlight = 16
	var wg sync.WaitGroup
	var failed atomic.Value
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range cases {
					c := cases[(i+g)%len(cases)]
					if err := exchange(c, (g+round)%10); err != nil {
						failed.CompareAndSwap(nil, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err, _ := failed.Load().(error); err != nil {
		t.Fatalf("pipelined: %v", err)
	}
}

// openConns pools n fresh connections from a to b's listener under
// distinct keys, the way TCP.conn pools a dialed peer, so two transports
// can hold many connections between them.
func openConns(t *testing.T, a, b *TCP, n int) []*muxConn {
	t.Helper()
	conns := make([]*muxConn, n)
	for i := range conns {
		nc, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writePreamble(nc); err != nil {
			t.Fatal(err)
		}
		c := newMuxConn(a, fmt.Sprintf("conn-%d", i), nc)
		a.mu.Lock()
		a.conns[c.to] = c
		a.wg.Add(1)
		a.mu.Unlock()
		go c.readLoop()
		conns[i] = c
	}
	return conns
}

// TestTCPIdleConnFootprint gates what an idle connection costs: heap for
// both of its ends, and goroutines. Each connection first carries one call,
// so both ends are fully set up, then goes quiet. What may stay is the two
// ends' read buffers and bookkeeping — at most 16 KiB of heap per
// connection — and the two reader goroutines plus the one server worker
// the call started; no writer keeps a goroutine.
func TestTCPIdleConnFootprint(t *testing.T) {
	const n = 64
	a, b := newTCPPair(t)
	b.Register(b.Addr(), func(from, kind string, payload any) (any, error) { return payload, nil })
	// One call over the pair's own connection first, so lazily started
	// transport machinery (the deadline sweeper) is not charged to the
	// measured connections.
	if _, err := a.Call(context.Background(), "c", b.Addr(), "x", echoPayload{}); err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heapBefore, goBefore := heap(), runtime.NumGoroutine()

	conns := openConns(t, a, b, n)
	for i, c := range conns {
		resp, err := c.roundTrip(context.Background(), time.Now().Add(10*time.Second), DefaultGroup, "c", b.Addr(), "x", echoPayload{Value: i})
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := resp.(echoPayload); !ok || p.Value != i {
			t.Fatalf("conn %d: resp = %#v", i, resp)
		}
	}
	if got := b.ConnCount(); got != n+1 {
		t.Fatalf("peer holds %d connections, want %d", got, n+1)
	}

	heapPer := (int64(heap()) - int64(heapBefore)) / n
	goPer := float64(runtime.NumGoroutine()-goBefore) / n
	t.Logf("idle connection: %d B heap, %.2f goroutines", heapPer, goPer)
	if heapPer > 16<<10 {
		t.Errorf("idle connection holds %d B of heap, want <= %d", heapPer, 16<<10)
	}
	if goPer > 3 {
		t.Errorf("idle connection holds %.2f goroutines, want <= 3 (two readers, one server worker)", goPer)
	}
}
