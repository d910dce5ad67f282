package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// muxConn is one multiplexed client connection to a peer. Any number of
// calls share it concurrently: each call tags its request frame with a
// fresh call ID, parks on a channel in pending, and a single reader
// goroutine completes calls — in whatever order the peer answers — as
// response frames arrive. Request writes go through the connection's
// coalescing frameWriter: a lone call flushes inline; a concurrent burst
// batches into few syscalls.
type muxConn struct {
	t    *TCP
	to   string
	conn net.Conn
	w    *frameWriter

	nextID atomic.Uint64

	// sweepID is this connection's key in the transport's deadline
	// sweeper, which enforces per-call deadlines for every connection of
	// the transport off one shared timer wheel.
	sweepID uint64

	pmu      sync.Mutex
	pending  map[uint64]pendingCall
	earliest time.Time // soonest pending deadline the sweeper is armed for
	failed   error     // sticky; set once the conn is torn down
}

type pendingCall struct {
	ch       chan callResult
	deadline time.Time // zero means no deadline
}

type callResult struct {
	payload any
	errMsg  string // handler-level error (the peer is alive)
	errCode uint64 // wire status code classifying errMsg (0 = unclassified)
	err     error  // transport-level error (the conn is broken)
}

// errCallTimeout reports a call abandoned by its per-call deadline. The
// connection itself may still be healthy (a slow handler), so the conn is
// not torn down; the reader discards the late response when it arrives.
var errCallTimeout = errors.New("transport: rpc deadline exceeded")

// resultChanPool recycles the per-call result channels. A channel may only
// be returned to the pool by a caller that received its result: a call
// abandoned by context cancellation may still get a late send from the
// reader, so its channel must be left to the garbage collector instead of
// handed to a new call.
var resultChanPool = sync.Pool{
	New: func() any { return make(chan callResult, 1) },
}

// encodeError marks a payload encoding failure, which happens before any
// bytes reach the socket and therefore does not poison the connection.
type encodeError struct{ error }

func (e *encodeError) Unwrap() error { return e.error }

func newMuxConn(t *TCP, to string, nc net.Conn) *muxConn {
	c := &muxConn{
		t:       t,
		to:      to,
		conn:    nc,
		w:       newFrameWriter(nc, t.rpcTimeout, t.GroupBacklogLimit, &t.obs),
		pending: make(map[uint64]pendingCall),
	}
	c.sweepID = t.sweep.register(c)
	return c
}

// roundTrip issues one pipelined request and waits for its response, the
// context, or the deadline — whichever happens first.
func (c *muxConn) roundTrip(ctx context.Context, deadline time.Time, gid uint64, from, to, kind string, payload any) (any, error) {
	id := c.nextID.Add(1)
	ch := resultChanPool.Get().(chan callResult)

	c.pmu.Lock()
	if c.failed != nil {
		err := c.failed
		c.pmu.Unlock()
		return nil, err
	}
	c.pending[id] = pendingCall{ch: ch, deadline: deadline}
	solo := len(c.pending) == 1 // no sibling call in flight: flush inline
	arm := false
	if !deadline.IsZero() && (c.earliest.IsZero() || deadline.Before(c.earliest)) {
		// The sweeper is armed for a later (or no) deadline on this
		// connection; arm it for this call's sooner one.
		c.earliest = deadline
		arm = true
	}
	c.pmu.Unlock()
	if arm {
		c.t.sweep.arm(c.sweepID, deadline)
	}

	err := c.w.writeRequest(id, gid, from, to, kind, payload, solo)
	if err != nil {
		c.forget(id)
		var encErr *encodeError
		if !errors.As(err, &encErr) {
			// A socket write error leaves the stream in an unknown state
			// (a frame may be half-written): the conn is unusable. An
			// encode error happened before any bytes were buffered, so
			// the conn survives it.
			c.t.dropConn(c.to, c)
			c.fail(err)
		}
		return nil, err
	}

	// Deadlines are enforced by the transport's shared deadline sweeper
	// (which completes an expired call through its result channel), not
	// by a per-call timer: at pipelining depth a timer per call costs two
	// timer-heap operations per RPC for a deadline that almost never
	// fires, and the sweeper amortizes even its single wheel entry across
	// every pipelined call on the connection.
	select {
	case res := <-ch:
		// Only a channel whose result was received may be recycled; see
		// resultChanPool.
		resultChanPool.Put(ch)
		if res.err != nil {
			return nil, res.err
		}
		if res.errMsg != "" {
			return nil, &handlerError{msg: res.errMsg, code: res.errCode}
		}
		return res.payload, nil
	case <-ctx.Done():
		c.forget(id)
		return nil, ctx.Err()
	}
}

// expire completes every call whose deadline has passed with
// errCallTimeout and returns the connection's next pending deadline (zero
// when none), which the sweeper rearms. A firing with nothing overdue —
// a stale wheel entry from a deadline that moved earlier — costs one map
// scan and rearms for the true earliest.
func (c *muxConn) expire(now time.Time) time.Time {
	c.pmu.Lock()
	var next time.Time
	for id, pc := range c.pending {
		if pc.deadline.IsZero() {
			continue
		}
		if !pc.deadline.After(now) {
			delete(c.pending, id)
			pc.ch <- callResult{err: errCallTimeout} // buffered; never blocks
		} else if next.IsZero() || pc.deadline.Before(next) {
			next = pc.deadline
		}
	}
	c.earliest = next
	c.pmu.Unlock()
	return next
}

// readLoop demultiplexes response frames to pending calls until the
// connection dies, then fails whatever is still in flight.
func (c *muxConn) readLoop() {
	defer c.t.wg.Done()
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		blob, err := readFrame(br)
		if err != nil {
			c.t.dropConn(c.to, c)
			c.fail(fmt.Errorf("transport: connection to %s lost: %w", c.to, err))
			return
		}
		body := blob.Bytes()
		c.t.obs.bytesRecv.Add(uint64(len(body)) + 4)
		frameType, callID, _, rest, err := frameHeader(body)
		if err != nil || frameType != frameResponse {
			blob.Release()
			c.t.dropConn(c.to, c)
			c.fail(fmt.Errorf("transport: bad frame from %s (type %d, %v)", c.to, frameType, err))
			return
		}
		// The copying decoder keeps nothing that aliases the frame, so
		// the blob goes back to its pool before the call completes.
		payload, errMsg, errCode, err := parseResponse(rest)
		blob.Release()
		res := callResult{payload: payload, errMsg: errMsg, errCode: errCode}
		if err != nil {
			// One undecodable response poisons only its own call; the
			// frame boundary is intact, so the stream keeps going.
			res = callResult{err: fmt.Errorf("transport: response from %s: %w", c.to, err)}
		}
		c.pmu.Lock()
		pc, ok := c.pending[callID]
		delete(c.pending, callID)
		c.pmu.Unlock()
		if ok {
			pc.ch <- res // buffered; never blocks
		}
	}
}

// forget abandons one pending call (timeout, context cancellation).
func (c *muxConn) forget(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

// fail tears the connection down and completes every pending call with
// err. Idempotent; the first error wins.
func (c *muxConn) fail(err error) {
	c.pmu.Lock()
	if c.failed != nil {
		c.pmu.Unlock()
		return
	}
	c.failed = err
	pending := c.pending
	c.pending = nil
	c.pmu.Unlock()
	c.t.sweep.unregister(c.sweepID)
	c.conn.Close()
	c.w.close()
	for _, pc := range pending {
		pc.ch <- callResult{err: err}
	}
}
