package runtime

import (
	"errors"
	"fmt"
	"slices"

	"camcast/internal/camkoorde"
	"camcast/internal/ring"
)

// failedSubtreePenalty is the hop-budget cost of one candidate that
// responded with a lookup failure. It is deliberately a large fraction of
// the budget: successful detours are short (a few hops), so they fit in
// whatever budget remains, while a search that keeps dead-ending exhausts
// its budget after a handful of subtree explorations instead of
// backtracking exponentially.
const failedSubtreePenalty = 64

// cursorMarginBits is how many bits a digit cursor injects beyond the
// ~log2(n) needed to name the owner's ring segment. Each extra bit halves
// the landing offset from k's true owner, so 8 bits land the chain within
// 1/256 of a successor gap — at the owner or its immediate ring neighbor —
// for the cost of at most 8 extra single-bit hops on capacity-4 paths.
const cursorMarginBits = 8

// exhaustWalkGaps is how far past k's owner (in mean successor gaps) an
// exhausted digit cursor still recovers by walking backward through exact
// predecessor pointers — one hop per stale member — before the landing is
// treated as flash-crowd staleness and rerouted instead.
const exhaustWalkGaps = 48

// maxLookupHops is the lookup hop budget (and the value a failed lookup
// observes in the hop histogram). The generous multiple of the identifier
// width covers greedy successor walks on small rings and the
// failed-subtree penalties charged while routing around partitions.
func (n *Node) maxLookupHops() int {
	return int(n.space.Bits())*4 + 256
}

// isLookupFailed reports whether an RPC error is a remote lookup
// exhaustion. In-process transports preserve the sentinel for errors.Is,
// and the wire protocol (v4+) carries a typed status code that the TCP
// transport rehydrates into the same sentinel.
func isLookupFailed(err error) bool {
	return errors.Is(err, ErrLookupFailed)
}

// FindSuccessor resolves the node currently responsible for identifier k,
// returning it together with the number of forwarding hops spent. This is
// the node's own entry point; remote requests arrive through handleFindSucc.
func (n *Node) FindSuccessor(k ring.ID) (NodeInfo, int, error) {
	resp, err := n.handleFindSucc(findSuccReq{K: k})
	if err != nil {
		// A failed lookup burned the whole budget; record it as max-hops so
		// the histogram's tail reflects partition behavior instead of
		// silently dropping the most expensive lookups.
		n.obs.lookupHops.Observe(float64(n.maxLookupHops()))
		return NodeInfo{}, 0, err
	}
	r, ok := resp.(findSuccResp)
	if !ok {
		return NodeInfo{}, 0, fmt.Errorf("runtime: bad find_successor response type %T", resp)
	}
	n.obs.lookupHops.Observe(float64(r.Hops))
	return r.Node, r.Hops, nil
}

func (n *Node) handleFindSucc(req findSuccReq) (any, error) {
	n.lookups.Add(1)
	maxHops := n.maxLookupHops()
	if req.Hops > maxHops {
		return nil, fmt.Errorf("%w: exceeded %d hops resolving %d", ErrLookupFailed, maxHops, req.K)
	}

	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil, ErrStopped
	}
	self := n.self
	pred, hasPred := n.predLocked()
	succ, ok := n.succHeadLocked()
	if !ok {
		succ = self
	}
	n.mu.Unlock()

	if owner, ok := n.ownSuccessor(req.K, pred, hasPred, succ); ok {
		return findSuccResp{Node: owner, Hops: req.Hops}, nil
	}

	// CAM-Koorde routes by de Bruijn digit shifts (Section 4.2): the request
	// carries a cursor — imaginary identifier plus remaining key digits —
	// that each hop advances one base-k digit through its own slot table.
	// The greedy closest-preceding walk below remains the fallback for
	// CAM-Chord, for greedy walks already under way (cursorless onward
	// hops), and for hops whose digit target is unreachable.
	if n.cfg.Mode == ModeCAMKoorde {
		if resp, err, handled := n.digitRoute(req, self, pred, hasPred); handled {
			return resp, err
		}
	}

	return n.greedyRoute(req, self, 0)
}

// ownSuccessor is the answer FindSuccessor(k) takes from the node's own
// pointers, without an RPC: self when alone or when (pred, self] covers k,
// the successor succ (self when the list is empty) when (self, succ] does.
// ok is false when k lies beyond the successor and only a routed lookup
// can answer.
func (n *Node) ownSuccessor(k ring.ID, pred NodeInfo, hasPred bool, succ NodeInfo) (NodeInfo, bool) {
	self := n.self
	if succ.Addr == self.Addr || k == self.ID ||
		(hasPred && pred.Addr != self.Addr && n.space.InOC(k, pred.ID, self.ID)) {
		return self, true
	}
	if n.space.InOC(k, self.ID, succ.ID) {
		return succ, true
	}
	return NodeInfo{}, false
}

// digitRoute advances a CAM-Koorde lookup by digit shifts. It initializes
// the cursor on a fresh entry-point request (Hops == 0, no cursor yet) and
// otherwise takes over only requests that already carry one; handled is
// false when the request must route greedily instead (a cursorless onward
// hop of a greedy walk, or the digit step's owner was unreachable — in
// which case the greedy fallback runs here directly, seeded with the
// subtree penalty).
func (n *Node) digitRoute(req findSuccReq, self, pred NodeInfo, hasPred bool) (resp any, err error, handled bool) {
	k := req.K
	b := n.space.Bits()
	if !req.HasCursor {
		if req.Hops > 0 {
			// An onward hop of greedyRoute, which forwards cursorless
			// requests: once a lookup falls back to greedy it stays greedy.
			return nil, nil, false
		}
		// Entry point: start the imaginary chain at our own identifier and
		// plan to inject only k's top cursorBits() — enough to land within a
		// successor gap of k's owner; the residual low bits are absorbed by
		// the termination checks and at most a ring step at the landing.
		req.HasCursor = true
		req.Img = self.ID
		req.Left = n.cursorBits()
	}

	for {
		if req.Left == 0 {
			// Chain exhausted: the landing is near k's owner, but the last
			// hop resolved through another node's slot, and slot contents
			// lag membership (they are only as fresh as the owner's last
			// fix pass), so the landing can sit several members PAST the
			// owner. Up to exhaustWalkGaps mean successor gaps behind —
			// staleness from normal join traffic — walking backward through
			// the exact predecessor pointers converges in a hop per stale
			// member, cheaper than any rerouting. The yardstick is the mean
			// gap from the successor list, not the landing node's own
			// predecessor gap, whose exponential variance would randomly
			// reject cheap walks. k ahead of us (an undershoot) is the
			// greedy candidates' home turf already.
			behind := n.space.Dist(k, self.ID)
			if behind < n.space.Dist(self.ID, k) {
				gap := n.meanSuccGap()
				if gap == 0 && hasPred {
					gap = n.space.Dist(pred.ID, self.ID)
				}
				if behind <= exhaustWalkGaps*gap &&
					hasPred && pred.Addr != self.Addr && !n.isSuspect(pred.Addr) {
					fwd := req
					fwd.Hops++
					r, err := n.call(pred.Addr, kindFindSucc, fwd)
					if err == nil {
						if fs, ok := r.(findSuccResp); ok {
							return fs, nil, true
						}
					}
					if isLookupFailed(err) {
						r2, err2 := n.greedyRoute(req, self, failedSubtreePenalty)
						return r2, err2, true
					}
				}
				// Landed a long way past the owner — a flash-crowd's worth of
				// members joined ahead of us since the final slot's owner last
				// fixed it, and the backward walk would pay a hop per stale
				// member. Re-inject a fresh cursor and run a new digit chain
				// from here: another O(log n) trial through different tables
				// that usually lands close enough for the predecessor walk
				// above. Staleness is spatially correlated (everyone's slots
				// covering a freshly-grown region lag together), so trials
				// are capped at an eighth of the hop budget; past that the
				// greedy walk finishes with most of the budget in hand.
				if req.Hops < n.maxLookupHops()/8 {
					req.Img = self.ID
					req.Left = n.cursorBits()
					continue
				}
				return nil, nil, false
			}
			return nil, nil, false
		}

		// One digit step: the widest shift our capacity affords for the next
		// of k's remaining top bits, looked up in our own slot table.
		g, shift, v := camkoorde.NextShift(n.cfg.Capacity, k, b-uint(req.Left), b)
		idx, ok := n.spec.slotIndex(tableKey{level: uint32(g), seq: uint32(v)})
		var target NodeInfo
		if ok {
			n.mu.Lock()
			if n.stopped {
				n.mu.Unlock()
				return nil, ErrStopped, true
			}
			target = n.arena.Resolve(n.slotRefs[idx])
			n.mu.Unlock()
		}

		// The right-shift de Bruijn map x -> v·2^(b-s) | x>>s is linear, not
		// circular: two ring-adjacent identifiers straddling zero map half a
		// ring apart. A slot whose image falls in the empty arc above the
		// highest member therefore stores a successor that wrapped past the
		// origin — following it would tear the real chain away from the
		// imaginary one for the rest of the lookup, degenerating into an
		// O(n) greedy walk. A wrapped step (target linearly below the slot
		// image) is genuine only when the image sits just above us — wrap
		// forces both into the ring's top 2^shift·gap arc — and is then
		// consumed in place like a self-pointing slot: the cursor stays
		// within a few gaps of us and the next non-wrapping digit rejoins
		// the chain. A wrapped target whose image is far from us is instead
		// a fossil from when the ring was sparse enough for the image's
		// whole upper arc to be empty; consuming there would tear the cursor
		// just as badly, so the slot is treated as unresolved below.
		wrapped := false
		slotImg := n.space.TopBits(v, shift) | n.space.Shr(self.ID, shift)
		if !target.zero() && target.ID < slotImg {
			gap := n.meanSuccGap()
			if gap == 0 || n.space.Dist(self.ID, slotImg) <= (gap<<shift)<<2 {
				fwd := req
				fwd.Img = n.space.TopBits(v, shift) | n.space.Shr(req.Img, shift)
				fwd.Left = req.Left - uint32(shift)
				req = fwd
				continue
			}
			wrapped = true
		}

		if target.zero() || wrapped || n.isSuspect(target.Addr) {
			// Slot not (yet) resolved — a fresh joiner mid-FixAll, or the
			// occupant just failed an RPC. Delegate the UNCHANGED cursor to a
			// live successor-list entry: the cursor is position-independent
			// state, any node's tables cover the same digit step, and on a
			// converged ring one such delegation suffices (a fresh joiner's
			// successor is exactly such a node). Preferring the farthest
			// entry makes the degenerate everyone-unfilled case a
			// stride-SuccListLen ring walk instead of a stride-1 one.
			// Never delegate across the ring origin: the right-shift digit
			// map is discontinuous at zero, so a cursor carried past the
			// origin lands its remaining steps half a ring from the
			// imaginary chain. Such delegates fall through to greedy.
			if live, ok := n.delegateSuccessor(self); ok && live.ID > self.ID {
				fwd := req
				fwd.Hops++
				r, err := n.call(live.Addr, kindFindSucc, fwd)
				if err == nil {
					if fs, ok := r.(findSuccResp); ok {
						return fs, nil, true
					}
				}
				if isLookupFailed(err) {
					r2, err2 := n.greedyRoute(req, self, failedSubtreePenalty)
					return r2, err2, true
				}
			}
			return nil, nil, false
		}

		// Advance the imaginary chain. The cursor carries the calculated
		// identifier, not the resolved node's, so sparse-ring resolution
		// drift never compounds (each hop divides the previous offset by
		// 2^shift); see camkoorde.Lookup for the static-network analogue.
		fwd := req
		fwd.Img = n.space.TopBits(v, shift) | n.space.Shr(req.Img, shift)
		fwd.Left = req.Left - uint32(shift)

		if target.Addr == self.Addr {
			// Our own table maps the step back to us (dense capacity or tiny
			// ring): consume the digit locally and take the next one.
			req = fwd
			continue
		}

		fwd.Hops++
		r, err := n.call(target.Addr, kindFindSucc, fwd)
		if err == nil {
			if fs, ok := r.(findSuccResp); ok {
				return fs, nil, true
			}
			return nil, nil, false
		}
		// The digit target is unreachable: fall back to greedy backtracking,
		// charging the failed-subtree penalty when the target itself already
		// exhausted a downstream search.
		penalty := 0
		if isLookupFailed(err) {
			penalty = failedSubtreePenalty
		}
		r2, err2 := n.greedyRoute(req, self, penalty)
		return r2, err2, true
	}
}

// delegateSuccessor picks the farthest successor-list entry that is
// neither self nor suspect — the delegate for a digit step whose slot is
// unfilled or whose occupant is suspect.
func (n *Node) delegateSuccessor(self NodeInfo) (NodeInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := len(n.succRefs) - 1; i >= 0; i-- {
		info := n.arena.Resolve(n.succRefs[i])
		if info.zero() || info.Addr == self.Addr || n.isSuspect(info.Addr) {
			continue
		}
		return info, true
	}
	return NodeInfo{}, false
}

// cursorBits estimates how many of k's top bits a digit cursor must inject
// for the truncated chain to land within one successor-list span of k's
// owner: b - log2(mean successor gap) names the owner's segment, plus
// cursorMarginBits of safety. The gap estimate comes from the node's own
// successor list — the only densely sampled ring segment it knows.
func (n *Node) cursorBits() uint32 {
	b := int(n.space.Bits())
	gap := n.meanSuccGap()
	if gap == 0 {
		return uint32(b) // alone or unconverged: inject everything
	}
	t := b - int(ring.Log2Floor(gap)) + cursorMarginBits
	if t < 1 {
		t = 1
	}
	if t > b {
		t = b
	}
	return uint32(t)
}

// meanSuccGap estimates the ring's per-member identifier gap from the
// node's own successor list — the only densely sampled ring segment it
// knows. Returns 0 when alone or not yet stabilized.
func (n *Node) meanSuccGap() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := len(n.succRefs)
	if l == 0 {
		return 0
	}
	span := n.space.Dist(n.self.ID, n.arena.Resolve(n.succRefs[l-1]).ID)
	return span / uint64(l)
}

// greedyRoute forwards to the closest known neighbor preceding k (the CAM
// lookup step), falling through the candidate list past unreachable nodes.
// penalty seeds the hop-budget surcharge when the caller already burned a
// failed digit subtree before falling back here.
//
// A candidate that RESPONDED with a lookup failure already searched a
// whole downstream subtree (or hit the hop limit), and the sibling we
// try next routes into largely the same subgraph. Unpenalized, that
// backtracking makes an unresolvable lookup — an identifier whose
// owner sits behind a partition — an exponential re-exploration of
// the reachable graph that livelocks maintenance for minutes. Charging
// every failed subtree a large slice of the hop budget bounds the
// whole search to a few thousand calls while leaving plenty of budget
// for the short sibling paths that succeed in practice.
func (n *Node) greedyRoute(req findSuccReq, self NodeInfo, penalty int) (any, error) {
	k := req.K
	var failed []string // peers this lookup's calls could not reach
	for _, cand := range n.routingCandidates(k) {
		resp, err := n.call(cand.Addr, kindFindSucc, findSuccReq{K: k, Hops: req.Hops + 1 + penalty})
		if err != nil {
			if isLookupFailed(err) {
				penalty += failedSubtreePenalty
			} else if unreachable(err) {
				failed = append(failed, cand.Addr)
			}
			continue
		}
		if r, ok := resp.(findSuccResp); ok {
			return r, nil
		}
	}

	// Last resort: ride the ring through the first successor not held
	// suspect — a suspect one would just time out again.
	if live, ok := n.liveSuccessor(); ok && live.Addr != self.Addr {
		resp, err := n.call(live.Addr, kindFindSucc, findSuccReq{K: k, Hops: req.Hops + 1 + penalty})
		if err == nil {
			if r, ok := resp.(findSuccResp); ok {
				return r, nil
			}
		}
		if unreachable(err) {
			failed = append(failed, live.Addr)
		}
	}

	// Every next hop failed. If this lookup's calls found every successor
	// unreachable and the predecessor is gone as well, nothing the node
	// knows of answers: drop the successors, as a stabilize round would (a
	// ring pointer drops only on a failed call to its peer), and own k as
	// a ring of one. While the predecessor lives the successors may only
	// be cut off, and owning their arc would hide them from its senders.
	if n.allUnreachable(failed) {
		for _, s := range n.SuccessorList() {
			n.dropSuccessor(s.Addr)
		}
		return findSuccResp{Node: self, Hops: req.Hops}, nil
	}
	return nil, fmt.Errorf("%w: no reachable next hop for %d from %s", ErrLookupFailed, k, self.Addr)
}

// allUnreachable reports whether every peer of the running node's ring
// pointers is out of reach: each successor is self or in failed, and the
// predecessor is unknown, self, in failed, or held suspect.
func (n *Node) allUnreachable(failed []string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return false
	}
	gone := func(addr string) bool { return addr == n.self.Addr || slices.Contains(failed, addr) }
	for _, ref := range n.succRefs {
		if !gone(n.arena.Resolve(ref).Addr) {
			return false
		}
	}
	pred, ok := n.predLocked()
	return !ok || gone(pred.Addr) || n.isSuspect(pred.Addr)
}
