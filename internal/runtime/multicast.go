package runtime

import (
	"context"
	"fmt"
	"slices"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// payloadRef carries a message payload through the forwarding engine: the
// raw bytes plus, on blob-aware transports, the refcounted blob that owns
// them. The engine only borrows the blob — the caller (the transport's
// serving side for relays, MulticastContext for origination) holds the
// reference for the duration of the synchronous spread and releases it —
// and every outgoing frame shares it, so fan-out, retry, repair handoff,
// and reflood all reuse the single encoding of the payload that already
// exists on this node.
type payloadRef struct {
	bytes []byte
	blob  *transport.Blob
}

// Multicast originates a message to the whole group and returns its message
// ID. CAM-Chord nodes split the identifier ring across their neighbor-table
// children (Section 3.4); CAM-Koorde nodes flood with an offer/accept dedup
// handshake (Section 4.3). Delivery to the local application happens first.
// Multicast returns only after the whole dissemination tree has completed —
// every segment either acknowledged, repaired, or accounted lost — so a
// caller observing Stats() afterwards sees the final forwarding outcome.
func (n *Node) Multicast(payload []byte) (string, error) {
	return n.MulticastContext(context.Background(), payload)
}

// MulticastContext is Multicast under the caller's context: cancellation
// abandons outstanding child sends (those segments are neither repaired
// nor counted lost — the caller gave up, the group did not fail) while
// per-child deadlines from Config.ForwardTimeout still apply.
func (n *Node) MulticastContext(ctx context.Context, payload []byte) (string, error) {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return "", ErrStopped
	}
	n.mu.Unlock()

	start := time.Now()
	msgID := fmt.Sprintf("%s#%d", n.self.Addr, n.seq.Add(1))
	n.seen.Record(msgID)
	n.deliver(Delivery{MsgID: msgID, Source: n.self, Payload: payload, Hops: 0})

	// On a blob-aware transport, materialize the payload once: every child
	// frame of the fan-out (and any retry or repair) shares this blob, so
	// the encode cost of a multicast is independent of capacity.
	p := payloadRef{bytes: payload}
	if n.blobPayloads && len(payload) > 0 {
		p.blob = transport.BlobFrom(payload)
		n.obs.encodes.Inc()
		defer p.blob.Release()
	}
	switch n.cfg.Mode {
	case ModeCAMChord:
		n.spreadSegment(ctx, msgID, n.self, p, n.space.Sub(n.self.ID, 1), 0)
	case ModeCAMKoorde:
		n.floodNeighbors(ctx, msgID, n.self, p, 0, "")
	}
	n.obs.treeTime.ObserveDuration(time.Since(start))
	return msgID, nil
}

func (n *Node) deliver(d Delivery) {
	n.delivered.Add(1)
	n.obs.delivered.Inc()
	if n.obs.bus.Active() {
		n.emitf(obsv.KindDeliver, "%s hops=%d", d.MsgID, d.Hops)
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(d)
	}
}

// noteDuplicate accounts one suppressed duplicate delivery or offer.
func (n *Node) noteDuplicate(msgID string) {
	n.duplicates.Add(1)
	n.obs.duplicates.Inc()
	if n.obs.bus.Active() {
		n.emitf(obsv.KindDuplicate, "%s", msgID)
	}
}

func (n *Node) handleMulticast(req multicastReq) (any, error) {
	dup := n.seen.Record(req.MsgID)
	if dup {
		// Stale routing state upstream caused a duplicate; suppress it so
		// the application still sees exactly-once delivery.
		n.noteDuplicate(req.MsgID)
		if !req.Repair {
			return multicastResp{Duplicate: true}, nil
		}
		// A repair handoff: the original child of (self, K] died, so this
		// node re-spreads the segment even though it already delivered the
		// message itself. Downstream duplicates are suppressed per node.
	} else {
		n.deliver(Delivery{MsgID: req.MsgID, Source: req.Source, Payload: req.Payload, Hops: req.Hops})
	}
	// Relay straight out of the received request: req.blob (held by the
	// transport until this handler returns) carries the wire bytes every
	// child frame shares, so the relay never re-encodes the payload.
	n.spreadSegment(context.Background(), req.MsgID, req.Source, payloadRef{req.Payload, req.blob}, req.K, req.Hops)
	return multicastResp{Duplicate: dup}, nil
}

// planStack is how many planned children spreadSegment holds on its own
// stack: the largest capacity of the default workload, U[4,10]. A larger
// capacity's plan spills to the heap.
const planStack = 10

// spreadSegment delivers the message to every member in (self, k] by
// splitting the segment across up to c_x children, exactly as the static
// algorithm in internal/camchord but resolving children through the node's
// own pointers (with on-demand lookups for children beyond the successor).
// Children that the node's own pointers prove empty are dropped before the
// fan-out, so a leaf's spread sends nothing, allocates nothing and is not
// observed. A lone child is sent inline; two or more are dispatched
// concurrently — one dead or slow child delays only its own segment — and
// each send is protected by the retry/repair engine in forward.go.
func (n *Node) spreadSegment(ctx context.Context, msgID string, source NodeInfo, payload payloadRef, k ring.ID, hops int) {
	var buf [planStack]childPlan
	plan := n.resolvePlan(n.planSegments(k, buf[:0]))
	if len(plan) == 0 {
		return
	}
	start := time.Now()
	if len(plan) == 1 {
		n.forwardSegment(ctx, msgID, source, payload, plan[0], hops)
	} else {
		// The fan-out's tasks may run on pool workers, so the children they
		// read move to pooled state; buf stays on this stack.
		f := spreadFanPool.Get().(*spreadFan)
		f.fanArgs = fanArgs{n: n, ctx: ctx, msgID: msgID, source: source, payload: payload, hops: hops}
		f.children = append(f.children, plan...)
		n.fanOut(len(f.children), f, &f.wg)
		f.release()
	}
	n.obs.spreadTime.ObserveDuration(time.Since(start))
}

// handleFlood serves a flood from the neighbour from: deliver, then flood
// onward, offering to every neighbour but from.
func (n *Node) handleFlood(from string, req floodReq) (any, error) {
	if n.seen.Record(req.MsgID) {
		n.noteDuplicate(req.MsgID)
		return floodResp{Duplicate: true}, nil
	}
	n.deliver(Delivery{MsgID: req.MsgID, Source: req.Source, Payload: req.Payload, Hops: req.Hops})
	n.floodNeighbors(context.Background(), req.MsgID, req.Source, payloadRef{req.Payload, req.blob}, req.Hops, from)
	return floodResp{}, nil
}

// handleReflood serves a repair re-offer from the neighbour from: deliver
// if the message is new here, then flood to our own neighbors regardless,
// so offers reach members around a dead neighbor. Already-delivered
// neighbors decline the offers, which bounds the extra traffic to one offer
// round per relay.
func (n *Node) handleReflood(from string, req floodReq) (any, error) {
	if !n.seen.Record(req.MsgID) {
		n.deliver(Delivery{MsgID: req.MsgID, Source: req.Source, Payload: req.Payload, Hops: req.Hops})
	}
	n.floodNeighbors(context.Background(), req.MsgID, req.Source, payloadRef{req.Payload, req.blob}, req.Hops, from)
	return floodResp{}, nil
}

// floodNeighbors implements CAM-Koorde's MULTICAST (Section 4.3): offer the
// message to every neighbor over the bidirectional links and send the
// payload only to those that have not received it. from, the neighbour
// that sent this member the payload (empty at the origin), is not offered
// it. In process the member makes the offers itself and runs the accepted
// floods concurrently under the fan-out limit; over the wire each
// neighbour's handshake runs on its own lane (floodFan.serve). Unreachable
// or undeliverable neighbors trigger a reflood repair through the
// surviving mesh.
func (n *Node) floodNeighbors(ctx context.Context, msgID string, source NodeInfo, payload payloadRef, hops int, from string) {
	f := floodFanPool.Get().(*floodFan)
	defer f.release()
	f.neighbors = n.appendKoordeNeighbors(f.neighbors)
	if len(f.neighbors) == 0 {
		return
	}
	start := time.Now()
	f.fanArgs = fanArgs{n: n, ctx: ctx, msgID: msgID, source: source, payload: payload, hops: hops}
	f.offer, f.from = offerReq{MsgID: msgID}, from
	f.outcomes = slices.Grow(f.outcomes, len(f.neighbors))[:len(f.neighbors)]
	f.serve()
	n.obs.spreadTime.ObserveDuration(time.Since(start))
	if ctx.Err() != nil {
		return // caller gave up; don't account abandoned sends as losses
	}

	// Split failures by what the failure detector says: a neighbor the
	// node's sends found unreachable is presumed gone — membership
	// shrinkage (the flood still refloods around the hole, but nothing
	// was lost to a live member) — while one whose messages were merely
	// lost is still believed alive and is accounted as repaired or lost.
	failedLive, failedDead := 0, 0
	for i, o := range f.outcomes {
		if !o.needRepair {
			continue
		}
		if n.isSuspect(f.neighbors[i].Addr) {
			failedDead++
		} else {
			failedLive++
		}
	}
	if failedLive+failedDead == 0 {
		return
	}
	var relays []NodeInfo
	for i, o := range f.outcomes {
		if o.relay {
			relays = append(relays, f.neighbors[i])
		}
	}
	n.refloodRepair(ctx, msgID, source, payload, hops, failedLive, relays)
}

// appendKoordeNeighbors appends the node's current CAM-Koorde neighbor set
// to out: predecessor, successor, and every resolved table slot,
// deduplicated. Slots are visited in index order, which targetsFor
// guarantees is ascending (level, seq) order, so the same routing state
// always yields the same neighbor sequence — flood order is part of what
// the deterministic replay engine asserts on.
func (n *Node) appendKoordeNeighbors(out []NodeInfo) []NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	base := len(out)
	// A linear scan of the appended entries dedups: they are at most the
	// table's slots plus predecessor and successor (about c_x), and a map
	// per flood cost more than the scan.
	add := func(info NodeInfo) {
		if info.zero() || info.Addr == n.self.Addr {
			return
		}
		for _, o := range out[base:] {
			if o.Addr == info.Addr {
				return
			}
		}
		out = append(out, info)
	}
	if p, ok := n.predLocked(); ok {
		add(p)
	}
	if len(n.succRefs) > 0 {
		add(n.arena.Resolve(n.succRefs[0]))
	}
	for _, ref := range n.slotRefs {
		add(n.arena.Resolve(ref))
	}
	return out
}
