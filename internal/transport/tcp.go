package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"camcast/internal/obsv"
)

// TCP is a transport that carries the same Call/Handler contract as the
// in-memory Network across real TCP sockets, making the protocol runtime
// deployable between processes and machines. Endpoint addresses are
// "host:port" strings: the address a node registers under is the address
// its TCP listener accepts on.
//
// Connections are multiplexed and pipelined: all calls to one destination
// share a single pooled connection, each tagged with a call ID, so N
// concurrent Calls put N RPCs in flight on one socket instead of N
// sequential round trips. Frames use a compact binary format (see frame.go)
// with a per-payload type tag; every payload type is hand-marshaled
// (WireMarshaler + RegisterWireDecoder), and a call carrying any other type
// fails before a byte reaches the socket.
// The serving side dispatches handlers to bounded worker goroutines per
// connection, so a slow handler neither delays the decoding of later
// requests nor blocks faster handlers' responses.
//
// A failed call reports a typed error (ErrUnreachable wrapping the cause)
// and keeps no other record: failure detection is the caller's.
type TCP struct {
	listenAddr string
	listener   net.Listener

	mu       sync.Mutex
	local    map[uint64]map[string]Handler // group flow label -> addr -> handler
	conns    map[string]*muxConn
	accepted map[net.Conn]bool
	closed   bool

	// DialTimeout bounds connection establishment; default 2s.
	DialTimeout time.Duration
	// RPCTimeout bounds each request/response exchange (a per-call timer —
	// the multiplexed socket carries other calls, so no socket-wide read
	// deadline is involved). A context deadline on Call tightens it
	// further per call. A timed-out call fails without tearing down the
	// shared connection. Default 10s.
	RPCTimeout time.Duration
	// ServerWorkers bounds concurrently running handlers per accepted
	// connection. Mutable before first use; default 32.
	ServerWorkers int
	// GroupBacklogLimit bounds, per group and per connection, how many
	// request bytes may sit buffered and unflushed in the connection's
	// writer. Over the limit, new requests from that group fail with
	// ErrGroupBacklog (responses are exempt — dropping them would break the
	// RPC contract) until the writer drains, so one saturating group sheds
	// its own load instead of growing the shared buffer other groups flush
	// through. 0 (the default) disables the quota. Mutable before first
	// use.
	GroupBacklogLimit int

	// obs holds the metric handles installed by Instrument; the zero value
	// disables all measurement.
	obs instruments

	// sweep enforces per-call RPC deadlines for all of this transport's
	// connections with one timer-wheel goroutine (started lazily by the
	// first outbound connection).
	sweep *deadlineSweeper

	wg sync.WaitGroup
}

// ErrClosed reports use of a closed TCP transport.
var ErrClosed = errors.New("transport: tcp transport closed")

const defaultServerWorkers = 32

// NewTCP starts a TCP transport listening on listenAddr (use
// "127.0.0.1:0" to pick a free port; Addr() returns the bound address).
func NewTCP(listenAddr string) (*TCP, error) {
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	t := &TCP{
		listenAddr:  l.Addr().String(),
		listener:    l,
		local:       make(map[uint64]map[string]Handler),
		conns:       make(map[string]*muxConn),
		accepted:    make(map[net.Conn]bool),
		DialTimeout: 2 * time.Second,
		RPCTimeout:  10 * time.Second,
	}
	t.sweep = newDeadlineSweeper(t)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address; nodes hosted on this transport
// should register under this address.
func (t *TCP) Addr() string { return t.listenAddr }

// Instrument directs the transport's hot-path measurements — RPC
// round-trip latency, in-flight calls, call/error counts, flush batch
// sizes, and served requests — into reg under the obsv.Metric* names.
// Like the timeout knobs it must be set before first use; nil reverts to
// no measurement.
func (t *TCP) Instrument(reg *obsv.Registry) {
	t.obs = newInstruments(reg)
}

// BlobPayloads reports whether this transport sends BlobMarshaler payloads
// zero-copy (scatter-gathered from their shared blob). The runtime checks
// this to decide whether originating a multicast should materialize a
// payload blob at all: on the in-memory transport (which passes payload
// values by reference, already copy-free), building one would only add a
// copy. The TCP transport always does.
func (t *TCP) BlobPayloads() bool { return true }

func (t *TCP) rpcTimeout() time.Duration { return t.RPCTimeout }

func (t *TCP) serverWorkers() int {
	if t.ServerWorkers > 0 {
		return t.ServerWorkers
	}
	return defaultServerWorkers
}

// Register attaches a handler for a locally hosted endpoint in the default
// group.
func (t *TCP) Register(addr string, h Handler) { t.RegisterGroup(DefaultGroup, addr, h) }

// Unregister detaches a locally hosted default-group endpoint.
func (t *TCP) Unregister(addr string) { t.UnregisterGroup(DefaultGroup, addr) }

// RegisterGroup attaches a handler for a locally hosted endpoint within
// group gid. The same address may host an endpoint in any number of groups;
// inbound frames carry the group label and route to the matching handler.
// The table nests (label, then address) so the per-call lookup uses the
// runtime's inlined uint64/string map fast paths instead of a generated
// struct-key hash call (see Network.RegisterGroup).
func (t *TCP) RegisterGroup(gid uint64, addr string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	eps := t.local[gid]
	if eps == nil {
		eps = make(map[string]Handler)
		t.local[gid] = eps
	}
	eps[addr] = h
}

// UnregisterGroup detaches a locally hosted endpoint within group gid.
func (t *TCP) UnregisterGroup(gid uint64, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	eps := t.local[gid]
	delete(eps, addr)
	if len(eps) == 0 {
		delete(t.local, gid)
	}
}

// LabelGroup names a group for this transport's per-group metrics, so
// counters read "transport.group.bytes_sent.video" rather than a raw flow
// label. Safe at any time; unlabeled groups use the decimal label.
func (t *TCP) LabelGroup(gid uint64, name string) {
	t.obs.groups.setLabel(gid, name)
}

// ConnCount returns the number of live TCP connections this transport
// holds (pooled outbound plus accepted inbound). Tests use it to assert
// that many groups share one connection per peer pair.
func (t *TCP) ConnCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns) + len(t.accepted)
}

// Call delivers one request. Local destinations short-circuit to the
// handler; remote ones go over the destination's pooled multiplexed
// connection. The context bounds connection establishment and the
// request/response exchange: its deadline (or RPCTimeout, whichever is
// sooner) arms a per-call timer, so a hung peer fails the call while other
// calls keep flowing on the shared connection.
func (t *TCP) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	return t.CallGroup(ctx, DefaultGroup, from, to, kind, payload)
}

// CallGroup delivers one request within group gid (see Call). An
// instrumented TCP call is timed every time: its two clock reads are under
// 0.5 % of a loopback round trip, so unlike the in-process network it is
// not sampled.
func (t *TCP) CallGroup(ctx context.Context, gid uint64, from, to, kind string, payload any) (any, error) {
	if t.obs.latency == nil {
		return t.dispatch(ctx, gid, from, to, kind, payload)
	}
	t.obs.calls.Inc()
	start := time.Since(epoch)
	resp, err := t.dispatch(ctx, gid, from, to, kind, payload)
	t.obs.latency.ObserveDuration(time.Since(epoch) - start)
	t.obs.completed.Inc()
	if err != nil {
		t.obs.errors.Inc()
	}
	return resp, err
}

func (t *TCP) dispatch(ctx context.Context, gid uint64, from, to, kind string, payload any) (any, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if h, ok := t.local[gid][to]; ok {
		t.mu.Unlock()
		return h(from, kind, payload)
	}
	t.mu.Unlock()

	resp, err := t.remoteCall(ctx, gid, from, to, kind, payload)
	if err != nil {
		var handlerErr *handlerError
		if errors.As(err, &handlerErr) {
			// A handler-level error: the endpoint is alive. A registered
			// status code rehydrates its sentinel so errors.Is matches
			// across the wire.
			if s := statusSentinelFor(handlerErr.code); s != nil {
				return nil, &statusError{msg: handlerErr.msg, sentinel: s}
			}
			return nil, errors.New(handlerErr.msg)
		}
		var encErr *encodeError
		if errors.As(err, &encErr) {
			// A local quota rejection or unencodable payload, not a peer
			// failure: the call never left this process, so it is not
			// reported unreachable.
			return nil, err
		}
		return nil, fmt.Errorf("%s -> %s (%s): %w: %w", from, to, kind, ErrUnreachable, err)
	}
	return resp, nil
}

// handlerError wraps an error string the remote handler returned (plus its
// wire status code), to keep it distinct from transport-level failures
// (which are reported as ErrUnreachable).
type handlerError struct {
	msg  string
	code uint64
}

func (e *handlerError) Error() string { return e.msg }

// rpcDeadline resolves the per-call deadline for one exchange: the sooner
// of the context deadline and now+RPCTimeout (zero when both are unset).
// A per-RPC bound that starts at its first Deadline read (the runtime's
// deadlineCtx) starts here, or at the dial that preceded the exchange.
func (t *TCP) rpcDeadline(ctx context.Context) time.Time {
	var deadline time.Time
	if t.RPCTimeout > 0 {
		deadline = time.Now().Add(t.RPCTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

func (t *TCP) remoteCall(ctx context.Context, gid uint64, from, to, kind string, payload any) (any, error) {
	c, err := t.conn(ctx, to)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(ctx, t.rpcDeadline(ctx), gid, from, to, kind, payload)
}

// conn returns the pooled multiplexed connection to to, dialing one if
// needed.
func (t *TCP) conn(ctx context.Context, to string) (*muxConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	dialTimeout := t.DialTimeout
	t.mu.Unlock()

	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, err
	}
	if err := writePreamble(nc); err != nil {
		nc.Close()
		return nil, err
	}
	c := newMuxConn(t, to, nc)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.fail(ErrClosed) // also stops the conn's flusher and sweep entry
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		t.mu.Unlock()
		c.fail(ErrClosed) // lost the race; reuse the existing connection
		return existing, nil
	}
	t.conns[to] = c
	t.wg.Add(1)
	t.mu.Unlock()
	go c.readLoop()
	return c, nil
}

// dropConn removes c from the pool (if it is still the pooled conn for to)
// and closes its socket.
func (t *TCP) dropConn(to string, c *muxConn) {
	c.conn.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// Close shuts the transport down: the listener stops, pooled connections
// close (failing any in-flight calls), and all background goroutines exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[string]*muxConn)
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, c := range conns {
		c.fail(ErrClosed) // closes the socket and completes pending calls
	}
	for _, c := range accepted {
		c.Close() // unblocks the serveConn decoder
	}
	t.sweep.stop()
	t.wg.Wait()
	return err
}
