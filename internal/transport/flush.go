package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// frameWriter serializes frame writes onto one socket and coalesces
// flushes. A writer that knows it is the only active writer on the
// connection (sole pending call, last in-flight handler) flushes inline —
// no added latency on a quiet connection. Any other writer leaves its frame
// buffered and, unless a flush is already armed, starts a flusher goroutine
// (flushSoon) that yields the processor a couple of times before flushing,
// so every caller or handler that is already runnable gets to append its
// frame first: a 16-way concurrent fan-out lands in one write syscall
// instead of sixteen. This is what makes pipelining pay off even on a
// single core, where concurrent writers never actually overlap on the
// write lock. The flusher exits after its one flush, so an idle writer
// holds no goroutine.
//
// Frames are encoded directly into the writer's buffer (no per-connection
// scratch-then-copy step): each frame reserves its 4-byte length prefix,
// encodes, and patches the prefix. Payloads carried by a refcounted Blob
// (BlobMarshaler values) never enter the buffer at all:
// the frame records a reference to the blob's bytes at the current buffer
// offset, and the flush writes buffered heads and shared payload bytes with
// one scatter-gather writev (net.Buffers), releasing each blob once its
// bytes are on the socket. A capacity-c fan-out therefore carries one
// payload encoding shared by c frames instead of c private copies.
//
// The writer is also where groups sharing one connection meet, so tenant
// fairness is enforced here. The socket write happens outside mu (the
// buffer is swapped out as a batch first), so while one batch drains,
// writers keep encoding into a fresh buffer instead of queueing on the
// lock. Each buffered frame carries its group label in a frame meta; a
// batch spanning multiple groups is assembled onto the socket by weighted
// round-robin over per-group frame queues (groupQuantum bytes per group per
// round) rather than arrival order, so a group blasting bulk frames cannot
// push another group's frames arbitrarily far back within the batch. On top
// of that, an optional per-group backlog quota (TCP.GroupBacklogLimit)
// refuses new *requests* from a group whose buffered bytes exceed the
// limit — ErrGroupBacklog, a local non-poisoning rejection — so a hot
// group sheds its own load instead of growing the shared buffer everyone
// flushes through. Responses are exempt: dropping a response would turn a
// served request into a caller-side timeout.
type frameWriter struct {
	conn net.Conn

	mu       sync.Mutex
	buf      []byte      // frame bytes buffered since the last batch was taken
	exts     []extSeg    // blob-backed segments interleaved into buf, by offset
	metas    []frameMeta // one per buffered frame, in seal order
	extLen   int         // total bytes across exts
	mixed    bool        // metas span more than one group
	err      error       // sticky; the conn is broken once set
	armed    bool        // a flushSoon goroutine is started and will flush
	frames   int         // frames buffered since the last batch was taken
	hot      bool        // the flusher is batching: skip inline flushes
	flushing bool        // a taken batch is being written outside mu

	// limit/pending implement the per-group backlog quota: pending tracks
	// buffered-plus-in-flight bytes per group (allocated lazily, only when
	// the limit is set).
	limit   int
	pending map[uint64]int

	// spare* recycle the previous batch's storage so the steady state is
	// two buffers ping-ponging, not an allocation per batch.
	spareBuf   []byte
	spareExts  []extSeg
	spareMetas []frameMeta

	// Write-side scratch, touched only by the goroutine that owns the
	// in-flight batch (flushing guarantees there is at most one).
	vecs     net.Buffers
	sending  net.Buffers // the header copy of vecs that WriteTo consumes
	wrrOrder []uint64
	wrrPos   []int
	wrrIdx   map[uint64][]int
	giCache  map[uint64]*groupInstruments
	deadline time.Time // the socket's armed write deadline (see setWriteDeadline)

	// timeout bounds each socket write/flush so one stalled peer cannot
	// pin writers (or the flusher) forever.
	timeout func() time.Duration
	// obs carries the transport's instruments (flush batch sizes, bytes
	// sent, payload encodes, per-group flow counters); every handle is
	// nil-safe.
	obs *instruments
}

// extSeg is one blob-backed payload segment: its bytes logically follow
// buf[:at]. The writer holds one blob reference per segment, taken when the
// frame is buffered and released when the flush puts the bytes on the
// socket (or the connection dies).
type extSeg struct {
	at  int
	b   []byte
	own *Blob
}

// frameMeta locates one sealed frame within the batch buffers and tags it
// with its group, which is what lets a mixed batch be reordered per group
// at flush time and lets the quota release the right group's bytes.
type frameMeta struct {
	gid              uint64
	bufStart, bufEnd int // this frame's range in buf (length prefix included)
	extStart, extEnd int // this frame's range in exts
	size             int // total wire bytes (prefix + head + ext payloads)
}

// batch is the buffered state taken from the writer in one swap, owned by
// the flushing goroutine until finishBatch returns it for recycling.
type batch struct {
	buf    []byte
	exts   []extSeg
	metas  []frameMeta
	extLen int
	frames int
	mixed  bool
}

const (
	// writeThreshold is the buffered-bytes level (heads + blob payloads)
	// that forces an inline flush, bounding how much one connection buffers
	// between flusher runs — the moral equivalent of the old fixed-size
	// bufio.Writer writing through when full.
	writeThreshold = 64 * 1024
	// maxRetainedBuf caps the head buffer kept across flushes; a burst of
	// oversized non-blob payloads does not pin its peak
	// footprint forever.
	maxRetainedBuf = 128 * 1024
	// groupQuantum is the weighted-round-robin share: bytes of one group's
	// frames placed per scheduling round of a mixed batch (always at least
	// one frame, so an oversized frame still makes progress).
	groupQuantum = 16 * 1024
)

func newFrameWriter(conn net.Conn, timeout func() time.Duration, limit int, obs *instruments) *frameWriter {
	return &frameWriter{
		conn:    conn,
		limit:   limit,
		timeout: timeout,
		obs:     obs,
	}
}

// writeRequest encodes and writes one request frame; writeResponse does
// the same for a response frame. They are separate methods rather than one
// writeFrame taking a builder closure so the encode happens inline under
// mu with no per-call closure allocation.
//
// inlineFlush says the caller believes no other writer is active, so the
// frame should hit the socket now; otherwise the flush is left to a
// flusher goroutine (or to a later inline writer). On a hot connection —
// the last flush batched multiple frames — the inline hint is ignored: under
// pipelined load the "sole active writer" heuristic misfires once per
// burst (the first caller of a new burst sees an empty pending set), and
// deferring to the flusher folds that stray frame into the burst's single
// write syscall. Both return the sticky connection error, if any.
func (w *frameWriter) writeRequest(callID, gid uint64, from, to, kind string, payload any, inlineFlush bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.limit > 0 && w.pending[gid] >= w.limit {
		over := w.pending[gid]
		w.mu.Unlock()
		if gi := w.obs.groups.get(gid); gi != nil {
			gi.drops.Inc()
		}
		return &encodeError{fmt.Errorf("%w: group %d has %d bytes buffered (limit %d)", ErrGroupBacklog, gid, over, w.limit)}
	}
	lenPos, extMark, extLenMark := w.markLocked()
	w.buf = appendFrameHeader(w.buf, frameRequest, callID, gid)
	w.buf = AppendString(w.buf, from)
	w.buf = AppendString(w.buf, to)
	w.buf = AppendString(w.buf, kind)
	if err := w.appendPayloadLocked(payload); err != nil {
		// Encoding failed; roll the partial frame back — the conn is still
		// clean, no bytes were exposed to the socket.
		w.rollbackLocked(lenPos, extMark, extLenMark)
		w.mu.Unlock()
		return &encodeError{err}
	}
	return w.sealFrame(gid, lenPos, extMark, extLenMark, inlineFlush)
}

func (w *frameWriter) writeResponse(callID, gid uint64, errMsg string, errCode uint64, payload any, inlineFlush bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	lenPos, extMark, extLenMark := w.markLocked()
	w.buf = appendFrameHeader(w.buf, frameResponse, callID, gid)
	w.buf = AppendString(w.buf, errMsg)
	if errMsg != "" {
		// Error responses carry a status code instead of a payload.
		w.buf = binary.AppendUvarint(w.buf, errCode)
		w.buf = append(w.buf, wireTagNil)
	} else if err := w.appendPayloadLocked(payload); err != nil {
		w.rollbackLocked(lenPos, extMark, extLenMark)
		w.mu.Unlock()
		return &encodeError{err}
	}
	return w.sealFrame(gid, lenPos, extMark, extLenMark, inlineFlush)
}

// markLocked records the rollback point for one frame and reserves its
// length prefix. Callers hold mu.
func (w *frameWriter) markLocked() (lenPos, extMark, extLenMark int) {
	lenPos, extMark, extLenMark = len(w.buf), len(w.exts), w.extLen
	w.buf = append(w.buf, 0, 0, 0, 0)
	return lenPos, extMark, extLenMark
}

// appendPayloadLocked encodes the payload field of the current frame. A
// BlobMarshaler carrying its blob contributes only its head to the buffer;
// the payload bytes ride as a shared extSeg. Callers hold mu.
func (w *frameWriter) appendPayloadLocked(payload any) error {
	if payload == nil {
		w.buf = append(w.buf, wireTagNil)
		return nil
	}
	if bm, ok := payload.(BlobMarshaler); ok {
		if view, owner := bm.PayloadBlob(); owner != nil {
			w.buf = append(w.buf, bm.WireTag())
			w.buf = bm.AppendWireHead(w.buf)
			if len(view) > 0 {
				owner.Retain()
				w.exts = append(w.exts, extSeg{at: len(w.buf), b: view, own: owner})
				w.extLen += len(view)
			}
			return nil
		}
		// A blob-capable payload without its blob falls back to a full
		// per-frame encode. Correct but a zero-copy regression, so it
		// counts as a payload materialization.
		w.obs.encodes.Inc()
	}
	b, err := appendPayload(w.buf, payload)
	if err != nil {
		return err
	}
	w.buf = b
	return nil
}

// rollbackLocked undoes a partially encoded frame: truncates the buffer and
// drops (releasing) any blob segments the frame added. Callers hold mu.
func (w *frameWriter) rollbackLocked(lenPos, extMark, extLenMark int) {
	w.buf = w.buf[:lenPos]
	for i := extMark; i < len(w.exts); i++ {
		w.exts[i].own.Release()
		w.exts[i] = extSeg{}
	}
	w.exts = w.exts[:extMark]
	w.extLen = extLenMark
}

// sealFrame patches the frame's length prefix, records its meta, applies
// the flush policy, and releases mu (callers enter holding it). If the
// policy says flush and no batch is in flight, the caller's goroutine takes
// the batch and performs the socket write itself — outside mu, so
// concurrent writers encode into the fresh buffer meanwhile.
func (w *frameWriter) sealFrame(gid uint64, lenPos, extMark, extLenMark int, inlineFlush bool) error {
	body := (len(w.buf) - lenPos - 4) + (w.extLen - extLenMark)
	if body > maxFrameSize {
		w.rollbackLocked(lenPos, extMark, extLenMark)
		w.mu.Unlock()
		return &encodeError{fmt.Errorf("transport: frame body %d bytes exceeds the %d-byte limit", body, maxFrameSize)}
	}
	putFrameLen(w.buf[lenPos:], body)
	if w.frames > 0 && gid != w.metas[len(w.metas)-1].gid {
		w.mixed = true
	}
	w.metas = append(w.metas, frameMeta{
		gid:      gid,
		bufStart: lenPos,
		bufEnd:   len(w.buf),
		extStart: extMark,
		extEnd:   len(w.exts),
		size:     body + 4,
	})
	w.frames++
	if w.limit > 0 {
		if w.pending == nil {
			w.pending = make(map[uint64]int)
		}
		w.pending[gid] += body + 4
	}
	if ((inlineFlush && !w.hot) || len(w.buf)+w.extLen >= writeThreshold) && !w.flushing {
		b := w.takeBatchLocked()
		w.mu.Unlock()
		return w.writeBatch(b)
	}
	if !w.armed {
		w.armed = true
		go w.flushSoon()
	}
	w.mu.Unlock()
	return nil
}

// takeBatchLocked swaps the buffered frames out as a batch (installing the
// recycled spare buffers) and marks the writer flushing. Callers hold mu
// and must call writeBatch with the result after unlocking.
func (w *frameWriter) takeBatchLocked() batch {
	b := batch{buf: w.buf, exts: w.exts, metas: w.metas, extLen: w.extLen, frames: w.frames, mixed: w.mixed}
	w.buf, w.spareBuf = w.spareBuf, nil
	w.exts, w.spareExts = w.spareExts, nil
	w.metas, w.spareMetas = w.spareMetas, nil
	w.extLen, w.frames, w.mixed = 0, 0, false
	w.hot = b.frames > 1
	w.flushing = true
	if b.frames > 0 {
		w.obs.flush.Observe(float64(b.frames))
	}
	return b
}

// writeBatch puts one taken batch on the socket — one gathered write —
// releases its blob references, and returns its storage for recycling.
// Runs outside mu; the flushing flag guarantees a single owner, which is
// what makes the writer's vecs/WRR scratch safe to reuse here.
func (w *frameWriter) writeBatch(b batch) error {
	var err error
	total := len(b.buf) + b.extLen
	if total > 0 {
		w.setWriteDeadline()
		w.assembleVecs(&b)
		if len(w.vecs) == 1 {
			// Plain write for the all-head single-run batch: same syscall
			// count, and unlike writev it carries the race detector's I/O
			// synchronization annotation.
			_, err = w.conn.Write(w.vecs[0])
		} else {
			// WriteTo consumes its receiver down to an empty slice at the
			// end of the array; writing through a copy of the header keeps
			// w.vecs' capacity for the next batch. The copy is a field, as
			// a local would escape through WriteTo's pointer receiver.
			w.sending = w.vecs
			_, err = w.sending.WriteTo(w.conn) // writev on TCP conns
		}
		for i := range w.vecs {
			w.vecs[i] = nil
		}
		w.vecs = w.vecs[:0]
		for i := range b.exts {
			b.exts[i].own.Release()
			b.exts[i] = extSeg{}
		}
		// Bytes handed to the socket (the frames are gone from the buffer
		// either way — on error the conn is torn down).
		w.obs.bytesSent.Add(uint64(total))
		w.accountGroups(&b)
	}
	w.finishBatch(b, err)
	return err
}

// assembleVecs lays the batch's frames out as scatter-gather segments in
// w.vecs. A single-group batch keeps the cheap linear interleave of buffer
// runs and blob segments; a mixed batch goes through the weighted
// round-robin ordering instead.
func (w *frameWriter) assembleVecs(b *batch) {
	if b.mixed && b.frames > 1 {
		w.vecs = w.wrrVecs(w.vecs[:0], b)
		return
	}
	vecs := w.vecs[:0]
	prev := 0
	for i := range b.exts {
		e := &b.exts[i]
		if e.at > prev {
			vecs = append(vecs, b.buf[prev:e.at])
		}
		vecs = append(vecs, e.b)
		prev = e.at
	}
	if prev < len(b.buf) {
		vecs = append(vecs, b.buf[prev:])
	}
	w.vecs = vecs
}

// wrrVecs orders a mixed batch's frames by weighted round-robin over the
// groups present: each round places up to groupQuantum bytes (at least one
// frame) per group, in first-appearance group order, until every frame is
// placed. Frames keep FIFO order within their group; reordering across
// groups inside one batch is safe because responses are matched by call ID,
// not arrival order. The scratch maps/slices live on the writer and are
// reset (not freed) per batch.
func (w *frameWriter) wrrVecs(vecs net.Buffers, b *batch) net.Buffers {
	if w.wrrIdx == nil {
		w.wrrIdx = make(map[uint64][]int)
	}
	order := w.wrrOrder[:0]
	for i := range b.metas {
		gid := b.metas[i].gid
		q := w.wrrIdx[gid]
		if len(q) == 0 {
			order = append(order, gid)
		}
		w.wrrIdx[gid] = append(q, i)
	}
	pos := w.wrrPos[:0]
	for range order {
		pos = append(pos, 0)
	}
	remaining := b.frames
	for remaining > 0 {
		for oi, gid := range order {
			q := w.wrrIdx[gid]
			placed := 0
			for pos[oi] < len(q) && placed < groupQuantum {
				m := &b.metas[q[pos[oi]]]
				vecs = appendFrameVecs(vecs, b, m)
				placed += m.size
				pos[oi]++
				remaining--
			}
		}
	}
	for _, gid := range order {
		w.wrrIdx[gid] = w.wrrIdx[gid][:0]
	}
	w.wrrOrder = order[:0]
	w.wrrPos = pos[:0]
	return vecs
}

// appendFrameVecs appends one frame's wire segments (buffer runs
// interleaved with its blob payloads) to vecs.
func appendFrameVecs(vecs net.Buffers, b *batch, m *frameMeta) net.Buffers {
	prev := m.bufStart
	for i := m.extStart; i < m.extEnd; i++ {
		e := &b.exts[i]
		if e.at > prev {
			vecs = append(vecs, b.buf[prev:e.at])
		}
		vecs = append(vecs, e.b)
		prev = e.at
	}
	if prev < m.bufEnd {
		vecs = append(vecs, b.buf[prev:m.bufEnd])
	}
	return vecs
}

// accountGroups adds each non-default group's share of the batch to its
// bytes_sent counter. The per-writer handle cache keeps the resolver's
// mutex off the steady-state path; like the WRR scratch it is owned by the
// single in-flight batch writer.
func (w *frameWriter) accountGroups(b *batch) {
	if w.obs.groups == nil {
		return
	}
	for i := range b.metas {
		m := &b.metas[i]
		if m.gid == DefaultGroup {
			continue
		}
		gi := w.giCache[m.gid]
		if gi == nil {
			gi = w.obs.groups.get(m.gid)
			if w.giCache == nil {
				w.giCache = make(map[uint64]*groupInstruments)
			}
			w.giCache[m.gid] = gi
		}
		gi.bytesSent.Add(uint64(m.size))
	}
}

// finishBatch returns a written batch's storage to the writer, settles the
// quota accounting, and decides what happens next: fail the writer on a
// socket error, or start a flusher if frames accumulated while the batch
// was in flight.
func (w *frameWriter) finishBatch(b batch, err error) {
	w.mu.Lock()
	w.flushing = false
	if w.limit > 0 && w.pending != nil {
		for i := range b.metas {
			m := &b.metas[i]
			if rest := w.pending[m.gid] - m.size; rest > 0 {
				w.pending[m.gid] = rest
			} else {
				delete(w.pending, m.gid)
			}
		}
	}
	if cap(b.buf) <= maxRetainedBuf {
		w.spareBuf = b.buf[:0]
	}
	w.spareExts = b.exts[:0]
	w.spareMetas = b.metas[:0]
	if err != nil {
		w.fail(err)
	} else if w.frames > 0 && !w.armed && w.err == nil {
		w.armed = true
		go w.flushSoon()
	}
	w.mu.Unlock()
}

// releaseExtsLocked releases every buffered (untaken) blob segment.
// Callers hold mu.
func (w *frameWriter) releaseExtsLocked() {
	for i := range w.exts {
		w.exts[i].own.Release()
		w.exts[i] = extSeg{}
	}
	w.exts = w.exts[:0]
	w.extLen = 0
}

// setWriteDeadline makes sure the socket's write deadline leaves at least
// one timeout for the batch about to be written. Re-arming the deadline
// costs a poller update and a timer modification, so it is done lazily:
// only when less than the timeout remains, and then to now + 1.5 × timeout,
// which lets a busy writer keep one deadline for half a timeout. A write
// that makes no progress therefore fails between one and one and a half
// timeouts after it started. Called only by the batch owner (see
// writeBatch).
func (w *frameWriter) setWriteDeadline() {
	d := w.timeout()
	if d <= 0 {
		return
	}
	now := time.Now()
	if w.deadline.Sub(now) >= d {
		return
	}
	w.deadline = now.Add(d + d/2)
	_ = w.conn.SetWriteDeadline(w.deadline)
}

// fail marks the writer broken and closes the socket, which unblocks the
// connection's reader and tears the conn down. Buffered frames are dropped,
// so their blob references are released here. Callers hold mu.
func (w *frameWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.releaseExtsLocked()
	w.metas = w.metas[:0]
	w.frames = 0
	w.conn.Close()
}

// close drops any buffered frames and fails later writes with ErrClosed; a
// flusher still starting up finds the error and exits. The socket is closed
// by the caller.
func (w *frameWriter) close() {
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	w.releaseExtsLocked()
	w.metas = w.metas[:0]
	w.frames = 0
	w.mu.Unlock()
}

// flushSoon is the backstop flusher, started by a writer that leaves a
// frame buffered: it yields a couple of times so every already-runnable
// writer can append its frame, flushes the whole batch in one syscall, and
// exits. If an inline writer has a batch in flight the flusher only
// disarms — that writer's finishBatch starts a new one if frames remain.
func (w *frameWriter) flushSoon() {
	runtime.Gosched()
	runtime.Gosched()
	w.mu.Lock()
	w.armed = false
	if w.err != nil || w.flushing || w.frames == 0 {
		w.mu.Unlock()
		return
	}
	b := w.takeBatchLocked()
	w.mu.Unlock()
	w.writeBatch(b)
}
