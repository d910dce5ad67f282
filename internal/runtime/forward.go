package runtime

import (
	"context"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"camcast/internal/metrics"
	"camcast/internal/obsv"
	"camcast/internal/ring"
)

// This file is the resilient forwarding engine shared by both CAM modes:
// concurrent child fan-out with per-child deadlines, bounded retry with
// exponential backoff and jitter, and orphan-segment repair. The dispatch
// plan for a message is computed first (pure ring arithmetic) and resolved
// from the node's own state, then every child send runs on its own
// goroutine under a per-fan-out in-flight limit, so one dead or slow child
// delays only its own segment, never its siblings. The limit is scoped to
// one fan-out rather than the whole node: repair handoffs can re-enter
// spreadSegment on a node whose earlier fan-out is still blocked, and a
// node-wide semaphore would deadlock there.

// childPlan is one entry of a CAM-Chord dispatch plan: the target
// identifier y whose successor becomes the child, the table slot expected
// to hold it, and the end of the segment (child, segEnd] delegated to it.
// to is the child that resolvePlan resolved from the node's own state
// before the fan-out; it is zero when only a routed lookup can tell.
type childPlan struct {
	y       ring.ID
	key     tableKey
	viaSucc bool
	segEnd  ring.ID
	to      NodeInfo
}

// planSegments splits (self, k] across up to c_x children, exactly as the
// static algorithm in internal/camchord: level-i neighbors preceding k,
// then evenly spaced level-(i-1) children, then the successor. It appends
// the children to plan and returns it. Segment boundaries depend only on
// ring arithmetic, never on send outcomes, so the plan can be dispatched
// concurrently.
func (n *Node) planSegments(k ring.ID, plan []childPlan) []childPlan {
	s := n.space
	x := n.self.ID
	c := uint64(n.cfg.Capacity)
	if s.Dist(x, k) == 0 {
		return plan
	}

	kk := k
	add := func(y ring.ID, key tableKey, viaSucc bool) {
		if s.Dist(x, kk) == 0 || !s.InOC(y, x, kk) {
			return
		}
		plan = append(plan, childPlan{y: y, key: key, viaSucc: viaSucc, segEnd: kk})
		kk = s.Sub(y, 1)
	}

	level, seq, pow := s.LevelSeq(x, k, c)
	// Level-i neighbors preceding k (Lines 6-9).
	for m := seq; m >= 1; m-- {
		add(s.Add(x, m*pow), tableKey{level: uint32(level), seq: uint32(m)}, false)
	}
	// Evenly spaced level-(i-1) children (Lines 10-14; see internal/camchord
	// for why the ceiling matches the paper's worked example).
	if level >= 1 {
		prevPow := pow / c
		l := float64(c)
		step := float64(c) / float64(c-seq)
		for m := int64(c) - int64(seq) - 1; m >= 1; m-- {
			l -= step
			j := uint64(math.Ceil(l))
			if j < 1 {
				j = 1
			}
			add(s.Add(x, j*prevPow), tableKey{level: uint32(level - 1), seq: uint32(j)}, false)
		}
	}
	// The successor (Line 15).
	add(s.Add(x, 1), tableKey{}, true)
	return plan
}

// resolvePlan resolves every planned child from the node's own state under
// one hold of n.mu, so all children of a fan-out see one consistent view,
// and drops the children that view proves empty. It compacts plan in place
// and returns the children left: those with a resolved target, and those
// whose y lies beyond the successor with no current memo entry, which
// need a routed lookup. A child resolves to
//   - its candidate, when that is not suspect and lies inside its segment:
//     the table slot's occupant, or for the successor child the first
//     successor-list entry not held suspect (liveSuccessorLocked);
//   - otherwise, FindSuccessor's answer from the node's own pointers
//     (ownSuccessor);
//   - otherwise, the confirmSuccessor memo's answer for y, when the memo
//     holds one for the current topology generation (memoPeek).
//
// A child whose answer lies outside its segment is dropped. A dropped child
// would otherwise have ended in a memo hit or a local FindSuccessor in
// forwardSegment, neither of which makes an RPC, so on a topology that
// holds still dropping it leaves the spread's RPC sequence unchanged. The
// memo is read here, before the fan-out, not when the child's turn comes:
// a child dropped on the memo's word no longer gets a fresh lookup when a
// sibling's failed send moves topoGen during the fan-out.
func (n *Node) resolvePlan(plan []childPlan) []childPlan {
	s := n.space
	self := n.self
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		// A stopped node holds no pointers and answers no lookup from them
		// (handleFindSucc fails with ErrStopped): every child falls back
		// to forwardSegment.
		return plan
	}
	pred, hasPred := n.predLocked()
	succ, hasSucc := n.succHeadLocked()
	if !hasSucc {
		succ = self
	}
	out := plan[:0]
	for _, cp := range plan {
		var cand NodeInfo
		if cp.viaSucc {
			cand, _ = n.liveSuccessorLocked()
		} else if idx, ok := n.spec.slotIndex(cp.key); ok && idx < len(n.slotRefs) {
			cand = n.arena.Resolve(n.slotRefs[idx])
		}
		if !cand.zero() && cand.Addr != self.Addr && s.InOC(cand.ID, self.ID, cp.segEnd) && !n.isSuspect(cand.Addr) {
			cp.to = cand
		} else if own, ok := n.ownSuccessor(cp.y, pred, hasPred, succ); ok {
			if own.Addr == self.Addr || !s.InOC(own.ID, self.ID, cp.segEnd) {
				continue // no member owns this segment
			}
			cp.to = own
		} else if info, ok := n.memoPeek(cp.y); ok {
			if info.zero() || info.Addr == self.Addr || !s.InOC(info.ID, self.ID, cp.segEnd) {
				continue // the memoized lookup found the segment empty
			}
			cp.to = info
		}
		out = append(out, cp)
	}
	return out
}

// memoPeek returns confirmSuccessor's memoized answer for y when the memo
// holds one for the current topology generation. It never looks up.
func (n *Node) memoPeek(y ring.ID) (NodeInfo, bool) {
	gen := n.topoGen.Load()
	n.memoMu.Lock()
	defer n.memoMu.Unlock()
	if n.memoGen != gen {
		return NodeInfo{}, false
	}
	info, ok := n.memo[y]
	return info, ok
}

// fanOut runs r.run(i) for every i in [0, count) concurrently, bounded by
// ForwardParallel in flight at once (ForwardParallel-1 pool lanes plus the
// caller's own goroutine), and waits for all of them on wg. With
// ForwardParallel == 1 (Config.ForwardParallel < 0) the items run inline in
// plan order on the caller's goroutine: a pool of one would serialize them
// too, but in scheduler order rather than plan order, and the deterministic
// replay engine (internal/replay) depends on a serialized node behaving
// identically from run to run.
//
// The parallel path hands items to a process-wide pool of warm workers
// rather than spawning a goroutine per child: a child send's call chain
// (forward -> flow -> mux -> frame writer -> socket) outgrows a fresh
// goroutine's initial stack, and the per-spawn stack copies were the
// dominant cost of high-fan-out dissemination over TCP. A nested fan-out
// (a member of the same process forwarding onward) that finds the shared
// pool saturated runs its items inline instead of deadlocking it (see
// lane).
func (n *Node) fanOut(count int, r runner, wg *sync.WaitGroup) {
	if count == 1 {
		r.run(0)
		return
	}
	if n.cfg.ForwardParallel <= 1 {
		for i := 0; i < count; i++ {
			r.run(i)
		}
		return
	}
	pooled := 0
	for i := 1; i < count; i++ {
		n.lane(r, i, wg, &pooled)
	}
	r.run(0)
	wg.Wait()
}

// lane hands r.run(i) to a pool worker, counted on wg, while the fan-out
// has handed fewer than ForwardParallel-1 items to the pool (*pooled) and
// a worker is free; otherwise it runs the item inline. Handoff never
// blocks. It is a poolTask value carrying r, the fan-out's pooled state
// (spreadFan, floodFan), and wg lives in that state, so a handoff
// allocates nothing.
func (n *Node) lane(r runner, i int, wg *sync.WaitGroup, pooled *int) {
	if *pooled < n.cfg.ForwardParallel-1 {
		wg.Add(1)
		if fwdPool.submit(poolTask{r: r, i: i, wg: wg}) {
			*pooled++
			return
		}
		wg.Done()
	}
	r.run(i)
}

// runner is one fan-out's work: run(i) serves item i.
type runner interface{ run(i int) }

// poolTask is one fan-out item handed to a pool worker: r.run(i), then
// wg.Done().
type poolTask struct {
	r  runner
	i  int
	wg *sync.WaitGroup
}

func (t poolTask) do() {
	defer t.wg.Done()
	t.r.run(t.i)
}

// fanArgs are the arguments every child send of one fan-out shares.
type fanArgs struct {
	n       *Node
	ctx     context.Context
	msgID   string
	source  NodeInfo
	payload payloadRef
	hops    int
}

// spreadFan is a CAM-Chord spread's fan-out state for two or more
// children, borrowed from spreadFanPool for the spread's duration: the
// fan-out's tasks may run on pool workers, so the children they read
// cannot stay on the spreading goroutine's stack, and a pooled copy costs
// no allocation.
type spreadFan struct {
	fanArgs
	children []childPlan
	wg       sync.WaitGroup
}

var spreadFanPool = sync.Pool{New: func() any { return new(spreadFan) }}

func (s *spreadFan) run(i int) {
	s.n.forwardSegment(s.ctx, s.msgID, s.source, s.payload, s.children[i], s.hops)
}

// release returns s to its pool holding no reference into the spread.
func (s *spreadFan) release() {
	clear(s.children)
	s.fanArgs, s.children = fanArgs{}, s.children[:0]
	spreadFanPool.Put(s)
}

// floodFan is one CAM-Koorde flood's fan-out state, borrowed from
// floodFanPool for the flood's duration: the neighbour buffer, one outcome
// per neighbour, the boxed offer every neighbour shares, the boxed flood
// every accepted neighbour shares, and from, the member that sent this one
// the payload (empty at the origin).
type floodFan struct {
	fanArgs
	offer, flood any
	from         string
	neighbors    []NodeInfo
	outcomes     []floodOutcome
	wg           sync.WaitGroup
}

// floodOutcome is one neighbour's result: whether it needs repair
// (unreachable, or reachable but the payload could not be delivered) and
// whether it is a usable reflood relay. wanted marks a neighbour that
// accepted the offer, and retry one whose first offer, made by the relay
// itself, got no answer: its lane makes the remaining attempts.
type floodOutcome struct{ needRepair, relay, wanted, retry bool }

var floodFanPool = sync.Pool{New: func() any { return new(floodFan) }}

// serve floods the message to f's neighbours and waits for every flood.
// Over the wire (a transport with blob payloads, see Node.blobPayloads) an
// offer is a network round trip, so each neighbour's whole handshake runs
// on its own lane (fanOut), bounded by ForwardParallel, and a slow or dead
// neighbour delays only itself. In process an offer costs less than waking
// a pool worker for it, so the relay makes each offer itself, in plan
// order, and hands a lane only an accepted flood, which carries a whole
// subtree, or the retries of an offer that got no answer (inline when the
// fan-out's lanes are taken). Serialized, a neighbour's flood runs before
// the next offer either way, which is the RPC sequence replay depends on.
// The last neighbour's lane work runs on the relay's own goroutine, which
// has nothing left to do but wait. The sender keeps its slot, so the
// others keep their order, but it is not offered the message: it has just
// sent the payload here, so it would refuse, and it is a usable relay.
func (f *floodFan) serve() {
	n := f.n
	if n.blobPayloads {
		f.boxFlood()
		n.fanOut(len(f.neighbors), f, &f.wg)
		return
	}
	pooled, last := 0, len(f.neighbors)-1
	for i, nb := range f.neighbors {
		o := &f.outcomes[i]
		if nb.Addr == f.from {
			o.relay = true
			continue
		}
		switch v := f.offerAttempts(i, 0, 0); {
		case v == offerFailed && n.cfg.ForwardRetries > 0:
			o.retry = true
		case !o.settle(v):
			continue
		}
		f.boxFlood()
		if i == last {
			f.run(i)
		} else {
			n.lane(f, i, &f.wg, &pooled)
		}
	}
	f.wg.Wait()
}

// run serves neighbour i on its lane: the offer handshake that serve has
// not settled (all of it over the wire, the retries of an unanswered first
// offer in process), then the flood.
func (f *floodFan) run(i int) {
	n, nb, o := f.n, f.neighbors[i], &f.outcomes[i]
	if !o.wanted {
		if nb.Addr == f.from {
			o.relay = true
			return
		}
		first := 0
		if o.retry {
			first = 1
		}
		if !o.settle(f.offerAttempts(i, first, n.cfg.ForwardRetries)) {
			return
		}
	}
	o.needRepair, o.relay = n.floodTo(f.ctx, f.msgID, f.flood, nb)
}

// offerAttempts makes offer attempts first..last (0-based) to neighbour i,
// backing off before each retry, until one is answered, and returns the
// last attempt's verdict.
func (f *floodFan) offerAttempts(i, first, last int) offerVerdict {
	n, to := f.n, f.neighbors[i].Addr
	v := offerFailed
	for attempt := first; v == offerFailed && attempt <= last; attempt++ {
		if attempt > 0 {
			n.backoff(f.ctx, attempt-1)
		}
		resp, err := n.sendTimed(f.ctx, to, kindOffer, f.offer)
		v = n.offerVerdict(f.ctx, f.msgID, to, attempt, resp, err)
	}
	return v
}

// settle records the final verdict v of a neighbour's offer and reports
// whether the neighbour wants the payload.
func (o *floodOutcome) settle(v offerVerdict) bool {
	switch v {
	case offerFailed:
		o.needRepair = true // unreachable neighbor: repair via the surviving mesh
	case offerRefused:
		o.relay = true
	case offerWanted:
		o.wanted = true
	}
	return o.wanted
}

// boxFlood boxes the flood's floodReq once, for every flood and retry of
// the fan-out to share. It runs before any lane that may flood is handed
// out.
func (f *floodFan) boxFlood() {
	if f.flood == nil {
		f.flood = floodReq{MsgID: f.msgID, Source: f.source, Payload: f.payload.bytes, Hops: f.hops + 1, blob: f.payload.blob}
	}
}

// release returns f to its pool holding no reference into the flood.
func (f *floodFan) release() {
	clear(f.neighbors)
	clear(f.outcomes)
	f.fanArgs, f.offer, f.flood, f.from = fanArgs{}, nil, nil, ""
	f.neighbors, f.outcomes = f.neighbors[:0], f.outcomes[:0]
	floodFanPool.Put(f)
}

// fwdPool is the process-wide forward-worker pool. It is shared by every
// node in the process — per-node pools would put the goroutine count back
// on an O(members) slope, which is exactly what the sharded live runtime
// exists to avoid — and its workers exit after an idle grace period, so a
// quiescent process keeps no forward goroutines at all. The pool has no
// queue: submit either wakes a parked worker, starts one (under the cap),
// or reports failure and the caller runs the task itself.
var fwdPool = newTaskPool()

const fwdIdleExit = time.Second

type taskPool struct {
	tasks   chan poolTask // unbuffered: a send finds a parked worker or fails
	workers atomic.Int32  // live workers, bounded by capacity()
	limit   int32
}

// newTaskPool sizes the pool once, at four workers per GOMAXPROCS with a
// floor of 16: GOMAXPROCS takes the scheduler lock, too dear to read on
// every submit that finds no parked worker.
func newTaskPool() *taskPool {
	limit := int32(4 * goruntime.GOMAXPROCS(0))
	if limit < 16 {
		limit = 16
	}
	return &taskPool{tasks: make(chan poolTask), limit: limit}
}

func (p *taskPool) capacity() int32 { return p.limit }

// submit hands t to a warm worker, or starts a fresh one under the cap.
// It never blocks; false means the pool is saturated and the caller should
// run t itself.
func (p *taskPool) submit(t poolTask) bool {
	select {
	case p.tasks <- t:
		return true
	default:
	}
	for {
		w := p.workers.Load()
		if w >= p.capacity() {
			return false
		}
		if p.workers.CompareAndSwap(w, w+1) {
			go p.worker(t)
			return true
		}
	}
}

// worker runs its seed task, then parks on the task channel. It exits once
// a whole fwdIdleExit period passes in which it ran nothing, so an idle
// worker lives 1-2x fwdIdleExit and a busy one never re-arms its timer per
// task. The first deep call chain grows this goroutine's stack once; every
// task it picks up afterwards reuses the grown stack.
func (p *taskPool) worker(t poolTask) {
	t.do()
	idle := time.NewTimer(fwdIdleExit)
	defer idle.Stop()
	ran := false
	for {
		select {
		case t = <-p.tasks:
			t.do()
			ran = true
		case <-idle.C:
			if !ran {
				p.workers.Add(-1)
				return
			}
			ran = false
			idle.Reset(fwdIdleExit)
		}
	}
}

// confirmSuccessor is FindSuccessor through the node's per-generation memo,
// for a planned child beyond the successor that its table slot could not
// resolve: in a quiet group the recurring per-message lookups — confirming
// a planned segment empty, re-resolving a missing table slot — cost a map
// hit instead of an RPC chain. The memo holds only while the topology
// generation is unchanged; any membership write (stabilize, notify, fix,
// join, leave, suspicion flip) discards it, so a group in motion gets
// exactly the fresh lookups it got before the memo existed. Failure-path
// resolution (retry, repair) bypasses the memo on purpose: those callers
// just learned the topology view is wrong. Only a memo miss counts as a
// table fault.
func (n *Node) confirmSuccessor(y ring.ID) (NodeInfo, error) {
	gen := n.topoGen.Load()
	n.memoMu.Lock()
	if n.memoGen != gen {
		clear(n.memo)
		n.memoGen = gen
	} else if info, ok := n.memo[y]; ok {
		n.memoMu.Unlock()
		return info, nil
	}
	n.memoMu.Unlock()

	n.tableFaults.Add(1)
	info, _, err := n.FindSuccessor(y)
	if err != nil {
		return NodeInfo{}, err
	}
	n.memoMu.Lock()
	// Cache only if the topology held still across the lookup; a result
	// straddling a generation boundary may predate the change.
	if n.memoGen == gen && n.topoGen.Load() == gen && len(n.memo) < 4096 {
		n.memo[y] = info
	}
	n.memoMu.Unlock()
	return info, nil
}

// sendTimed issues one child send under the per-child deadline, within the
// caller's context.
func (n *Node) sendTimed(ctx context.Context, to, kind string, payload any) (any, error) {
	return n.callWithin(ctx, n.cfg.ForwardTimeout, to, kind, payload)
}

// callWithin issues one RPC under ctx bounded at d; d <= 0 leaves it
// unbounded. The bound is a deadlineCtx borrowed from deadlinePool for the
// call's duration: Transport.Call must not retain ctx after it returns, so
// the context goes back to the pool then, and an RPC allocates no context
// and reads no clock until its transport asks for the deadline.
func (n *Node) callWithin(ctx context.Context, d time.Duration, to, kind string, payload any) (any, error) {
	if d <= 0 {
		return n.callCtx(ctx, to, kind, payload)
	}
	dc := deadlinePool.Get().(*deadlineCtx)
	dc.Context, dc.d = ctx, d
	resp, err := n.callCtx(dc, to, kind, payload)
	dc.reset()
	deadlinePool.Put(dc)
	return resp, err
}

// deadlineCtx is ctx bounded d after the bound starts, without a timer.
// The bound starts at the first Deadline call, which fixes its instant
// once: the transport reads Deadline when it has time to bound (TCP before
// its exchange, the mem transport before a simulated delay), and a call
// that never asks (an in-process call with no delay) reads no clock.
// Deadline reports the earlier of the parent's deadline and the bound's
// instant; Err reports the parent's error and, once the instant is fixed
// and has passed, context.DeadlineExceeded; Done is the parent's and does
// not close at the bound. The transport enforces the deadline itself (the
// TCP deadline sweeper, the mem transport's clipped delay), so an RPC
// costs neither the timer, cancel closure and context that
// context.WithTimeout builds per call nor, pooled, any allocation.
type deadlineCtx struct {
	context.Context
	d time.Duration
	// at is the bound's instant as an offset from deadlineEpoch, zero
	// until the first Deadline call fixes it. Goroutines racing to fix it
	// (a net.Dialer reads the deadline from its own goroutines) agree on
	// the first one stored.
	at atomic.Int64
}

var deadlinePool = sync.Pool{New: func() any { return new(deadlineCtx) }}

// deadlineEpoch anchors deadlineCtx instants: an offset from it is one
// monotonic clock read, and deadlineEpoch.Add(offset) is a time.Time that
// compares against time.Now() by its monotonic reading.
var deadlineEpoch = time.Now()

// reset empties c for the pool.
func (c *deadlineCtx) reset() {
	c.Context, c.d = nil, 0
	c.at.Store(0)
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	at := c.at.Load()
	if at == 0 {
		// time.Since(deadlineEpoch) >= 0 and d > 0, so a fixed at is never 0.
		at = int64(time.Since(deadlineEpoch) + c.d)
		if !c.at.CompareAndSwap(0, at) {
			at = c.at.Load()
		}
	}
	own := deadlineEpoch.Add(time.Duration(at))
	if d, ok := c.Context.Deadline(); ok && d.Before(own) {
		return d, true
	}
	return own, true
}

func (c *deadlineCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if at := c.at.Load(); at != 0 && time.Since(deadlineEpoch) >= time.Duration(at) {
		return context.DeadlineExceeded
	}
	return nil
}

// backoff sleeps before retry attempt (0-based), doubling the base delay
// each attempt with ±50% jitter drawn from the node's seeded RNG. Returns
// early if the node stops or the context is canceled.
func (n *Node) backoff(ctx context.Context, attempt int) {
	base := n.cfg.RetryBackoff
	if base <= 0 {
		return
	}
	if attempt > 4 {
		attempt = 4 // cap the exponent: 16x base is plenty for a multicast
	}
	d := base << uint(attempt)
	jitter := 0.5 + n.jitterFloat()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	case <-n.stopCh:
	}
}

// noteRetry accounts one forwarding retry.
func (n *Node) noteRetry(msgID, to string, attempt int, err error) {
	n.retries.Add(1)
	n.obs.retries.Inc()
	n.countMetric(metrics.CounterForwardRetries)
	n.emitf(obsv.KindRetry, "%s attempt %d to %s: %v", msgID, attempt, to, err)
}

// noteAcked accounts one acknowledged child send.
func (n *Node) noteAcked() {
	n.acked.Add(1)
	n.obs.acked.Inc()
	n.countMetric(metrics.CounterForwardAcked)
	n.forwarded.Add(1)
}

// noteLost accounts one segment (or flood neighbor) abandoned.
func (n *Node) noteLost() {
	n.lost.Add(1)
	n.obs.lost.Inc()
	n.countMetric(metrics.CounterForwardLost)
}

// forwardSegment delivers one planned segment to its child: the target
// resolvePlan found, or else the owner of y by a routed lookup through the
// memo. It sends with the per-child deadline, and on failure re-resolves
// and retries with backoff up to ForwardRetries times. If every attempt
// fails the segment is handed to repairSegment rather than dropped.
func (n *Node) forwardSegment(ctx context.Context, msgID string, source NodeInfo, payload payloadRef, cp childPlan, hops int) {
	s := n.space
	x := n.self.ID

	child := cp.to
	if child.zero() {
		// y lies beyond the successor, the table slot is empty, suspect,
		// or claims the segment is empty — a slot filled before closer
		// members joined looks exactly the same — and resolvePlan found no
		// current memo entry. Confirm with a lookup before silently
		// truncating the tree here.
		info, err := n.confirmSuccessor(cp.y)
		if err != nil {
			// The lookup itself failed — the network said no, not the ring.
			// Engage repair instead of truncating: a truly empty segment
			// makes it a no-op, a live owner gets the handoff, and an
			// unreachable one is accounted, never silently dropped.
			n.repairSegment(ctx, msgID, source, payload, cp, NodeInfo{}, hops)
			return
		}
		if info.zero() || info.Addr == n.self.Addr || !s.InOC(info.ID, x, cp.segEnd) {
			return // no live member owns this segment; nothing to deliver
		}
		child = info
	}

	req := multicastReq{MsgID: msgID, Source: source, Payload: payload.bytes, K: cp.segEnd, Hops: hops + 1, blob: payload.blob}
	for attempt := 0; ; attempt++ {
		_, err := n.sendTimed(ctx, child.Addr, kindMulticast, req)
		if err == nil {
			n.noteAcked()
			if n.obs.bus.Active() {
				n.emitf(obsv.KindForward, "%s -> segment end %d", msgID, cp.segEnd)
			}
			return
		}
		if ctx.Err() != nil {
			return // caller canceled; the abandoned segment is not a group failure
		}
		if attempt >= n.cfg.ForwardRetries {
			break
		}
		n.noteRetry(msgID, child.Addr, attempt+1, err)
		n.backoff(ctx, attempt)
		// The child may have died: re-resolve so its successor inherits
		// the segment (transient drops re-send to the same child).
		if info, _, lerr := n.FindSuccessor(cp.y); lerr == nil && !info.zero() {
			if info.Addr == n.self.Addr || !s.InOC(info.ID, x, cp.segEnd) {
				return // the segment emptied out under us
			}
			child = info
		}
	}
	n.repairSegment(ctx, msgID, source, payload, cp, child, hops)
}

// repairSegment hands an orphaned segment — (y-1, segEnd] whose child
// failedChild could not be reached — to a live node so the subtree is not
// silently dropped. The handoff target is the successor of the dead
// child's identifier (not of y itself: until stabilization runs, the dead
// child's predecessor still claims y resolves to the dead child, so a
// lookup of y would just return the corpse again). Fallback is a ring walk
// through successor lists that hops over unresponsive nodes. Repair
// handoffs set multicastReq.Repair so a receiver that already delivered
// the message still re-spreads the wider segment. Only when both fail is
// the segment counted lost.
//
// The handoff covers (failedChild, segEnd], not the failed child itself.
// When the node does not hold that child suspect — its sends were lost,
// not refused — it is presumed alive and to have missed the message, and
// that miss is counted lost even though the rest of its segment was
// repaired. A child the node's own sends found unreachable is presumed
// gone: membership shrinkage, not counted.
func (n *Node) repairSegment(ctx context.Context, msgID string, source NodeInfo, payload payloadRef, cp childPlan, failedChild NodeInfo, hops int) {
	s := n.space
	x := n.self.ID
	req := multicastReq{MsgID: msgID, Source: source, Payload: payload.bytes, K: cp.segEnd, Hops: hops + 1, Repair: true, blob: payload.blob}

	target, from := cp.y, s.Sub(cp.y, 1)
	skipsChild := !failedChild.zero() && s.InOC(failedChild.ID, x, cp.segEnd)
	if skipsChild {
		target, from = s.Add(failedChild.ID, 1), failedChild.ID
	}
	if info, _, err := n.FindSuccessor(target); err == nil && !info.zero() {
		if info.Addr == n.self.Addr || !s.InOC(info.ID, x, cp.segEnd) {
			// No live members left past the failed child; nothing to repair.
			if skipsChild {
				n.noteChildMissed(msgID, failedChild)
			}
			return
		}
		if _, err := n.sendTimed(ctx, info.Addr, kindMulticast, req); err == nil {
			n.noteRepaired(msgID, cp.segEnd, info.Addr)
			if skipsChild {
				n.noteChildMissed(msgID, failedChild)
			}
			return
		}
	}
	if ctx.Err() != nil {
		return // caller canceled mid-repair; don't count the segment lost
	}
	if n.ringWalkHandoff(ctx, msgID, req, failedChild, from, cp.segEnd) {
		if skipsChild {
			n.noteChildMissed(msgID, failedChild)
		}
		return
	}
	n.noteLost()
	n.emitf(obsv.KindLost, "%s segment end %d lost", msgID, cp.segEnd)
}

// noteChildMissed accounts a failed child left out of its segment's
// repair handoff, unless the node holds it suspect.
func (n *Node) noteChildMissed(msgID string, child NodeInfo) {
	if n.isSuspect(child.Addr) {
		return
	}
	n.noteLost()
	n.emitf(obsv.KindLost, "%s child %s unreached", msgID, child.Addr)
}

// ringWalkHandoff is the last-resort repair path: walk the ring through
// successor lists until a reachable member inside (from, segEnd] accepts
// the orphan segment. Lookups alone cannot route past a node that failed
// without being detected — until stabilization notices, the failed child's
// predecessor keeps resolving the segment straight back to the corpse,
// while its successor list already names the live node behind it. The walk
// is bounded, and every step is one cheap neighbors RPC that doubles as a
// liveness probe, so dead or partitioned nodes along the way are simply
// hopped over.
func (n *Node) ringWalkHandoff(ctx context.Context, msgID string, req multicastReq, failedChild NodeInfo, from, segEnd ring.ID) bool {
	const maxSteps = 64
	s := n.space
	visited := map[string]bool{n.self.Addr: true}
	if !failedChild.zero() {
		visited[failedChild.Addr] = true
	}
	frontier := n.SuccessorList()
	for steps := 0; steps < maxSteps && len(frontier) > 0; steps++ {
		if ctx.Err() != nil {
			return false
		}
		cur := frontier[0]
		frontier = frontier[1:]
		if cur.zero() || visited[cur.Addr] {
			continue
		}
		visited[cur.Addr] = true
		if s.InOC(cur.ID, from, segEnd) {
			if _, err := n.sendTimed(ctx, cur.Addr, kindMulticast, req); err == nil {
				n.noteRepaired(msgID, segEnd, cur.Addr)
				return true
			}
		}
		resp, err := n.call(cur.Addr, kindNeighbors, neighborsReq{})
		if err != nil {
			continue // unreachable: hop over via the rest of the frontier
		}
		if nb, ok := resp.(neighborsResp); ok {
			frontier = append(append([]NodeInfo{}, nb.Succs...), frontier...)
		}
	}
	return false
}

func (n *Node) noteRepaired(msgID string, segEnd ring.ID, to string) {
	n.repaired.Add(1)
	n.obs.repaired.Inc()
	n.countMetric(metrics.CounterForwardRepaired)
	n.forwarded.Add(1)
	n.emitf(obsv.KindRepair, "%s segment end %d handed to %s", msgID, segEnd, to)
}

// offerVerdict is what one offer attempt settled.
type offerVerdict uint8

const (
	offerFailed    offerVerdict = iota // no answer: retry, or repair once out of retries
	offerAbandoned                     // the caller cancelled, or the answer was malformed: not a neighbour failure, not a relay
	offerRefused                       // the neighbour has the message: a usable reflood relay
	offerWanted                        // the neighbour wants the payload
)

// offerVerdict classifies the outcome of offer attempt (0-based) to nb,
// accounting a refusal as a duplicate and a failure that will be retried
// as a retry.
func (n *Node) offerVerdict(ctx context.Context, msgID, nb string, attempt int, resp any, err error) offerVerdict {
	if err != nil {
		if ctx.Err() != nil {
			return offerAbandoned
		}
		if attempt < n.cfg.ForwardRetries {
			n.noteRetry(msgID, nb, attempt+1, err)
		}
		return offerFailed
	}
	offer, ok := resp.(offerResp)
	if !ok {
		return offerAbandoned
	}
	if !offer.Want {
		n.duplicates.Add(1)
		n.obs.duplicates.Inc()
		return offerRefused
	}
	return offerWanted
}

// floodTo delivers the payload to nb, a neighbour that accepted the offer.
// req is the flood's floodReq, boxed once and shared by every neighbour.
// It reports whether the neighbour needs repair (the payload could not be
// delivered) and whether it is a usable reflood relay.
func (n *Node) floodTo(ctx context.Context, msgID string, req any, nb NodeInfo) (needRepair, relay bool) {
	// The neighbor is known-live and wants the message: a payload failure
	// here is always retried at least once before giving up.
	sendTries := n.cfg.ForwardRetries
	if sendTries < 1 {
		sendTries = 1
	}
	for attempt := 0; ; attempt++ {
		_, err := n.sendTimed(ctx, nb.Addr, kindFlood, req)
		if err == nil {
			n.noteAcked()
			if n.obs.bus.Active() {
				n.emitf(obsv.KindForward, "%s -> %s", msgID, nb.Addr)
			}
			return false, true
		}
		if ctx.Err() != nil {
			return false, false // caller canceled; not a neighbor failure
		}
		if attempt >= sendTries {
			return true, false
		}
		n.noteRetry(msgID, nb.Addr, attempt+1, err)
		n.backoff(ctx, attempt)
	}
}

// refloodRepair re-offers a message through surviving mesh neighbors after
// some neighbors could not be served, so members reachable only around the
// failure still get it. Each node issues at most one reflood per message,
// which keeps repair traffic bounded. Accounting covers only failedLive —
// the neighbors still believed to be members; neighbors the node holds
// suspect trigger the reflood but count as neither repaired nor lost (the
// member is presumed gone, not missed).
func (n *Node) refloodRepair(ctx context.Context, msgID string, source NodeInfo, payload payloadRef, hops int, failedLive int, relays []NodeInfo) {
	countLost := func() {
		if failedLive == 0 {
			return
		}
		for i := 0; i < failedLive; i++ {
			n.noteLost()
		}
		n.emitf(obsv.KindLost, "%s %d neighbor(s) unreached", msgID, failedLive)
	}
	if len(relays) == 0 || n.reflooded.Record(msgID) {
		countLost()
		return
	}
	req := floodReq{MsgID: msgID, Source: source, Payload: payload.bytes, Hops: hops + 1, blob: payload.blob}
	sent := 0
	for _, r := range relays {
		if sent >= 2 {
			break
		}
		if _, err := n.sendTimed(ctx, r.Addr, kindReflood, req); err == nil {
			sent++
		}
	}
	if sent == 0 {
		countLost()
		return
	}
	for i := 0; i < failedLive; i++ {
		n.repaired.Add(1)
		n.obs.repaired.Inc()
		n.countMetric(metrics.CounterForwardRepaired)
	}
	n.emitf(obsv.KindRepair, "%s reflooded via %d relay(s) for %d failure(s)", msgID, sent, failedLive)
}
