package runtime

import (
	"errors"
	"fmt"
	"slices"

	"camcast/internal/camkoorde"
	"camcast/internal/ring"
)

// failedSubtreePenalty is the hop-budget cost of one candidate that
// responded with a lookup failure. With maxLookupHops = 4·32+256 = 384 at
// 32 bits, one lookup explores at most 384/64 = 6 failed subtrees before
// its budget runs out, however wide the partition. A
// successful detour is a few hops and fits in what remains; a search that
// keeps dead-ending stops after a handful of subtrees instead of
// backtracking exponentially.
const failedSubtreePenalty = 64

// cursorMarginBits is how many bits a digit cursor injects beyond the
// b - log2(gap) that name the owner's segment. The gap is the mean over
// the succListLen successors, and a mean over m gaps misjudges the local
// density by up to about a factor of m when the list straddles a dense
// cluster; log2(m) extra bits absorb that factor, so the chain still
// lands within a gap of the owner.
var cursorMarginBits = int(ring.Log2Floor(succListLen))

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
// false when the request must route greedily instead: a cursorless onward
// hop of a greedy walk, a spent cursor with k ahead of us, or a digit step
// with nowhere to go.
//
// Each pass of the loop either returns or consumes at least one of the
// cursor's bits, under three rules:
//
//  1. A slot that names this node, or whose occupant lies below the slot's
//     image, is consumed in place. The right-shift de Bruijn map
//     x -> v·2^(b-s) | x>>s is linear while the ring is circular, so a
//     slot whose image falls in the empty arc above the highest member
//     stores a successor that wrapped past the origin; following it would
//     tear the real chain from the imaginary one, while consuming the
//     digit here keeps the cursor exact and the next step rejoins it.
//  2. An unfilled or suspect slot delegates the unchanged cursor to a live
//     successor.
//  3. A spent cursor walks back through predecessor pointers while k is
//     behind us, and otherwise falls to greedy routing.
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
		// inject only k's top cursorBits(), enough to land within a
		// successor gap of k's owner.
		req.HasCursor = true
		req.Img = self.ID
		req.Left = n.cursorBits()
	}

	for req.Left > 0 {
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

		// The cursor carries the calculated identifier, not the resolved
		// node's, so sparse-ring resolution drift never compounds (each hop
		// divides the previous offset by 2^shift); see camkoorde.Lookup for
		// the static-network analogue.
		fwd := req
		fwd.Img = n.space.TopBits(v, shift) | n.space.Shr(req.Img, shift)
		fwd.Left = req.Left - uint32(shift)
		slotImg := n.space.TopBits(v, shift) | n.space.Shr(self.ID, shift)
		switch {
		case !target.zero() && (target.Addr == self.Addr || target.ID < slotImg):
			req = fwd
		case target.zero() || n.isSuspect(target.Addr):
			// Never delegate across the ring origin, where the digit map is
			// discontinuous: such a delegate routes greedily instead.
			if live, ok := n.delegateSuccessor(self); ok && live.ID > self.ID {
				return n.forwardCursor(live.Addr, req, self)
			}
			return nil, nil, false
		default:
			return n.forwardCursor(target.Addr, fwd, self)
		}
	}

	if hasPred && pred.Addr != self.Addr && !n.isSuspect(pred.Addr) &&
		n.space.Dist(k, self.ID) < n.space.Dist(self.ID, k) {
		return n.forwardCursor(pred.Addr, req, self)
	}
	return nil, nil, false
}

// forwardCursor sends the cursor-bearing request req one hop on to addr.
// When the call fails, the lookup routes greedily from here instead,
// charged the failed-subtree penalty if addr's own search exhausted it.
func (n *Node) forwardCursor(addr string, req findSuccReq, self NodeInfo) (any, error, bool) {
	fwd := req
	fwd.Hops++
	r, err := n.call(addr, kindFindSucc, fwd)
	if err == nil {
		if fs, ok := r.(findSuccResp); ok {
			return fs, nil, true
		}
		return nil, nil, false
	}
	penalty := 0
	if isLookupFailed(err) {
		penalty = failedSubtreePenalty
	}
	r2, err2 := n.greedyRoute(req, self, penalty)
	return r2, err2, true
}

// delegateSuccessor picks the farthest successor-list entry that is
// neither self nor suspect: the delegate for a digit step whose slot is
// unfilled (a fresh joiner mid-FixAll) or suspect. The cursor is
// position-independent state, any node's tables cover the same digit
// step, and on a converged ring one such delegation suffices. Preferring
// the farthest entry makes the degenerate everyone-unfilled case a
// stride-succListLen ring walk instead of a stride-1 one.
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
// for the truncated chain to land within one successor gap of k's owner:
// b - log2(mean successor gap) names the owner's segment, plus
// cursorMarginBits for the error of the gap estimate.
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
