package camchord

import "camcast/internal/multicast"

// This file implements Proximity Neighbor Selection (PNS), the Section 5.2
// extension: "A node x can choose any node whose identifier belongs to the
// segment [x + j·c^i, x + (j+1)·c^i) as the neighbor x_{i,j}. Given this
// freedom, some heuristics (e.g., least delay first) may be used to choose
// neighbors to promote geographic clustering."
//
// The multicast routine needs the modification the paper calls
// "superficial": when the chosen child z' is not the first node of its
// identifier segment, the members between the segment start and z' would be
// skipped by the usual region arithmetic. They are covered by a short
// predecessor walk from z' (bounded by the candidate-sampling window), so
// delivery remains exactly-once.

// DelayFunc returns the one-way delay between two ring positions.
type DelayFunc func(a, b int) float64

// DefaultProximitySample is the default number of candidate nodes examined
// per neighbor slot. It bounds both the selection work and the length of
// the backward predecessor walk.
const DefaultProximitySample = 8

// BuildTreeProximity builds the implicit multicast tree rooted at src with
// least-delay-first child selection: for every child slot it examines up to
// sample candidate nodes clockwise from the slot's identifier (staying
// inside both the slot segment and the remaining multicast region) and
// picks the one with the smallest delay from the forwarding node.
//
// It returns the tree and the accumulated source-to-member delay of every
// node (delay[src] == 0). sample <= 1 degenerates to the arithmetic
// selection of BuildTree, modulo the per-node delay accounting.
func (n *Network) BuildTreeProximity(src int, delay DelayFunc, sample int) (*multicast.Tree, []float64, error) {
	if sample < 1 {
		sample = DefaultProximitySample
	}
	tree, err := multicast.NewTree(n.ring.Len(), src)
	if err != nil {
		return nil, nil, err
	}
	delays := make([]float64, n.ring.Len())
	s := n.ring.Space()

	queue := make([]task, 0, n.ring.Len())
	queue = append(queue, task{node: src, k: s.Sub(n.ring.IDAt(src), 1)})

	for head := 0; head < len(queue) && err == nil; head++ {
		x := queue[head].node
		xid := n.ring.IDAt(x)
		// Each child picks the least-delay candidate for the slot starting
		// at its identifier y (the slot width bounds the candidate window),
		// is delivered to, and covers the skipped members behind it with a
		// predecessor walk.
		Plan(s, xid, queue[head].k, n.caps[x], SpacingEven, func(ch Child) {
			y, k := ch.Y, ch.SegEnd
			first := n.ring.Responsible(y)
			if err != nil || first == x || !s.InOC(n.ring.IDAt(first), xid, k) {
				return
			}
			// Candidate window: up to sample nodes clockwise from y that
			// stay inside the slot [y, y+width) and the region (x, k]. The
			// successor slot has width 1: no proximity freedom there.
			segEnd := s.Add(y, ch.Width-1)
			if s.Dist(xid, segEnd) > s.Dist(xid, k) {
				segEnd = k
			}
			best := first
			bestDelay := delay(x, first)
			p := first
			for i := 1; i < sample; i++ {
				p = n.ring.Successor(p)
				if p == x || !s.InOC(n.ring.IDAt(p), y, segEnd) {
					break
				}
				if d := delay(x, p); d < bestDelay {
					best, bestDelay = p, d
				}
			}

			if err = tree.Deliver(x, best); err != nil {
				return
			}
			delays[best] = delays[x] + bestDelay
			queue = append(queue, task{node: best, k: k})

			// Backward walk: members in (y-1, best) were skipped by the
			// proximate choice; best forwards to them along predecessors.
			parent := best
			for w := n.ring.Predecessor(best); w != x && s.InOC(n.ring.IDAt(w), s.Sub(y, 1), n.ring.IDAt(best)); w = n.ring.Predecessor(w) {
				if err = tree.Deliver(parent, w); err != nil {
					return
				}
				delays[w] = delays[parent] + delay(parent, w)
				parent = w
			}
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return tree, delays, nil
}

// AvgDelay returns the mean source-to-member delay over reached non-root
// nodes of a delays slice produced by BuildTreeProximity.
func AvgDelay(tree *multicast.Tree, delays []float64) float64 {
	var sum float64
	var count int
	for pos := 0; pos < tree.Len(); pos++ {
		if pos == tree.Root() || !tree.Received(pos) {
			continue
		}
		sum += delays[pos]
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
