package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// serverConn is the accept side of one peer connection: a decode loop that
// reads request frames and hands each to a pool of worker goroutines,
// bounded per connection, so one slow handler delays neither the decoding
// of the peer's next request nor the responses of faster handlers. Workers
// are spawned on demand up to the bound and then live for the connection —
// reusing a warm goroutine (and its grown stack) per request instead of
// paying goroutine startup and stack-copy cost on every call. Workers
// write responses back — out of order, keyed by call ID — through the
// connection's coalescing frameWriter: the last in-flight worker flushes
// the batch inline, earlier ones leave their frames for the flusher.
type serverConn struct {
	t        *TCP
	w        *frameWriter
	reqs     chan *parsedRequest
	inflight atomic.Int32 // requests dispatched but not yet responded to
}

func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	if err := readPreamble(br); err != nil {
		return // wrong protocol or version; drop the peer
	}
	maxWorkers := t.serverWorkers()
	// The queue is buffered so the decode loop can hand off a burst of
	// pipelined requests without yielding to a worker between frames: the
	// whole burst is dispatched, in-flight, before the first handler runs,
	// which is what lets the last finishing worker flush all the responses
	// in one syscall. A full queue (maxWorkers executing + maxWorkers
	// queued) blocks the decode loop, which is the per-connection bound.
	s := &serverConn{t: t, w: newFrameWriter(conn, t.rpcTimeout, t.GroupBacklogLimit, &t.obs), reqs: make(chan *parsedRequest, maxWorkers)}
	defer s.w.close()

	spawned := 0
	var handlers sync.WaitGroup
	defer handlers.Wait()
	defer close(s.reqs) // workers exit once the queue drains

	for {
		blob, err := readFrame(br)
		if err != nil {
			return // peer closed or garbage framing
		}
		body := blob.Bytes()
		t.obs.bytesRecv.Add(uint64(len(body)) + 4)
		frameType, callID, gid, rest, err := frameHeader(body)
		if err != nil || frameType != frameRequest {
			blob.Release()
			return
		}
		req := getRequest()
		if err := parseRequest(req, callID, gid, rest, blob); err != nil {
			putRequest(req)
			// The frame boundary is intact, so only this call is
			// poisoned: answer it with an error and keep serving.
			s.respond(callID, gid, fmt.Sprintf("transport: bad request: %v", err), 0, nil, true)
			continue
		}
		n := s.inflight.Add(1)
		if spawned < maxWorkers && int(n) > spawned {
			// Outstanding requests exceed the pool: grow it, up to the
			// bound. Workers then live for the connection.
			spawned++
			handlers.Add(1)
			go s.worker(&handlers)
		}
		s.reqs <- req
	}
}

// worker serves requests until the queue closes.
func (s *serverConn) worker(wg *sync.WaitGroup) {
	defer wg.Done()
	for req := range s.reqs {
		errMsg, errCode, payload, decoded := s.handle(req)
		s.t.obs.served.Inc()
		// The last in-flight worker flushes the whole batch inline;
		// anyone still behind it leaves the frame to the flusher.
		inline := s.inflight.Add(-1) == 0
		s.respond(req.callID, req.gid, errMsg, errCode, payload, inline)
		// The response is written (its writer holds its own blob references
		// if it shares the payload), so the request's payload lifetime ends:
		// first the decoded value's reference, then the frame body itself.
		// Handlers only borrow the payload; anything they keep past return
		// is a copy, per the delivery contract.
		if pr, ok := decoded.(PayloadReleaser); ok {
			pr.ReleasePayload()
		}
		req.body.Release()
		putRequest(req)
	}
}

// handle decodes one request's payload and invokes the handler, returning
// the response to write — error text plus its wire status code — and the
// decoded payload (so the worker can release a blob-backed payload after
// the response is out).
func (s *serverConn) handle(req *parsedRequest) (errMsg string, errCode uint64, payload, decoded any) {
	decoded, err := decodePayloadOwned(req.payload, req.body, s.t.obs.encodes)
	if err != nil {
		return fmt.Sprintf("transport: bad payload: %v", err), 0, nil, nil
	}
	s.t.mu.Lock()
	h := s.t.local[req.gid][req.to]
	s.t.mu.Unlock()
	if h == nil {
		if req.gid != DefaultGroup {
			return fmt.Sprintf("transport: no endpoint %q in group %d here", req.to, req.gid), statusNoEndpoint, nil, decoded
		}
		return fmt.Sprintf("transport: no endpoint %q here", req.to), statusNoEndpoint, nil, decoded
	}
	resp, herr := h(req.from, req.kind, decoded)
	if herr != nil {
		return herr.Error(), statusCodeFor(herr), nil, decoded
	}
	return "", 0, resp, decoded
}

// respond writes one response frame, echoing the request's group label so
// the writer's per-group accounting sees both directions. An unencodable
// response payload is downgraded to an error response so the caller fails
// fast instead of timing out.
func (s *serverConn) respond(callID, gid uint64, errMsg string, errCode uint64, payload any, inline bool) {
	err := s.w.writeResponse(callID, gid, errMsg, errCode, payload, inline)
	if err == nil {
		return
	}
	var encErr *encodeError
	if errors.As(err, &encErr) {
		_ = s.w.writeResponse(callID, gid, fmt.Sprintf("transport: encode response: %v", encErr.Unwrap()), 0, nil, inline)
	}
	// Any other error is a dead socket; the decode loop exits on its own.
}
