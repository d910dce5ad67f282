// Package chord implements the capacity-UNAWARE Chord baseline the paper
// evaluates against (Section 6). To compare systems at equal average degree,
// the baseline is the base-c generalization of Chord: every node — whatever
// its bandwidth — keeps fingers at identifiers
//
//	(x + j·c^i) mod N,  j ∈ [1..c-1],  i ≥ 0,
//
// (classic Chord is c = 2: fingers x + 2^i). Multicast is the broadcast of
// El-Ansary et al. ("Efficient Broadcast in Structured P2P Networks",
// IPTPS'03), reference [10] of the paper: a node forwards the message to
// each of its fingers inside its assigned segment, delegating to each finger
// the sub-segment up to the next finger. Unlike CAM-Chord, the number of
// children is whatever the finger structure dictates — it varies from 1 to
// M−h at depth h, independent of node capacity — which is exactly the
// imbalance Section 3.4 of the paper criticizes.
package chord

import (
	"fmt"
	"sync"

	"camcast/internal/camchord"
	"camcast/internal/multicast"
	"camcast/internal/ring"
	"camcast/internal/topology"
)

// Network is a base-c Chord overlay over a static membership snapshot.
type Network struct {
	ring *topology.Ring
	base uint64
}

// New builds a Chord network with uniform finger base c >= 2 (c = 2 is
// classic Chord).
func New(r *topology.Ring, base int) (*Network, error) {
	if r == nil {
		return nil, fmt.Errorf("chord: nil ring")
	}
	if base < 2 {
		return nil, fmt.Errorf("chord: base %d must be >= 2", base)
	}
	return &Network{ring: r, base: uint64(base)}, nil
}

// Ring returns the underlying membership snapshot.
func (n *Network) Ring() *topology.Ring { return n.ring }

// Base returns the finger base c.
func (n *Network) Base() int { return int(n.base) }

// FingerIDs enumerates the finger identifiers of the node at ring position
// pos in ascending clockwise order: CAM-Chord's slot ladder at the uniform
// base c.
func (n *Network) FingerIDs(pos int) []ring.ID {
	s := n.ring.Space()
	x := n.ring.IDAt(pos)
	out := make([]ring.ID, 0, 32)
	camchord.Slots(s, int(n.base), func(sl camchord.Slot) { out = append(out, sl.ID(s, x)) })
	return out
}

// Lookup resolves the node responsible for identifier k starting at
// position from, via greedy closest-preceding-finger routing.
func (n *Network) Lookup(from int, k ring.ID) (resp int, path []int) {
	s := n.ring.Space()
	x := from
	path = append(path, x)
	for {
		xid := n.ring.IDAt(x)
		if xid == k {
			return x, path
		}
		succ := n.ring.Successor(x)
		if s.InOC(k, xid, n.ring.IDAt(succ)) {
			return succ, path
		}
		_, seq, pow := s.LevelSeq(xid, k, n.base)
		y := s.Add(xid, seq*pow)
		z := n.ring.Responsible(y)
		if z == x {
			return x, path // sparse ring: x itself is responsible for k
		}
		if s.InOC(k, xid, n.ring.IDAt(z)) {
			return z, path
		}
		x = z
		path = append(path, x)
	}
}

// BuildTree runs the El-Ansary broadcast from src: each node covering a
// segment forwards the message to every distinct finger node inside the
// segment, delegating to each the sub-segment that ends just before the
// next finger identifier.
func (n *Network) BuildTree(src int) (*multicast.Tree, error) {
	tree, err := multicast.NewTree(n.ring.Len(), src)
	if err != nil {
		return nil, err
	}
	if err := n.buildInto(tree, src); err != nil {
		return nil, err
	}
	return tree, nil
}

// BuildTreeInto rebuilds the broadcast tree from src into tree, which must
// span exactly Ring().Len() nodes. The tree is Reset first, so a caller can
// reuse one allocation across many sources; see Tree.Reset.
func (n *Network) BuildTreeInto(tree *multicast.Tree, src int) error {
	if tree == nil {
		return fmt.Errorf("chord: nil tree")
	}
	if tree.Len() != n.ring.Len() {
		return fmt.Errorf("chord: tree spans %d nodes, ring has %d", tree.Len(), n.ring.Len())
	}
	if err := tree.Reset(src); err != nil {
		return err
	}
	return n.buildInto(tree, src)
}

// task is one pending broadcast invocation: node must cover (node, k].
type task struct {
	node int
	k    ring.ID
}

// queuePool recycles the per-build work queue across builds, including
// concurrent ones from multiple experiment workers.
var queuePool = sync.Pool{New: func() any { q := make([]task, 0, 1024); return &q }}

// buildInto runs the El-Ansary broadcast; tree must already be rooted at src.
func (n *Network) buildInto(tree *multicast.Tree, src int) error {
	s := n.ring.Space()

	qp := queuePool.Get().(*[]task)
	queue := (*qp)[:0]
	defer func() { *qp = queue[:0]; queuePool.Put(qp) }()
	queue = append(queue, task{node: src, k: s.Sub(n.ring.IDAt(src), 1)})

	for head := 0; head < len(queue); head++ {
		t := queue[head]
		x := t.node
		xid := n.ring.IDAt(x)
		if s.Dist(xid, t.k) == 0 {
			continue
		}

		// Distinct finger nodes inside (x, k], ascending, each paired with
		// the identifier at which its delegated segment ends (exclusive).
		fingerIDs := n.FingerIDs(x)
		type child struct {
			node  int
			limit ring.ID // child covers (childID, limit]
		}
		children := make([]child, 0, len(fingerIDs))
		lastNode := -1
		for _, y := range fingerIDs {
			if !s.InOC(y, xid, t.k) {
				continue
			}
			z := n.ring.Responsible(y)
			if z == x || !s.InOC(n.ring.IDAt(z), xid, t.k) {
				continue
			}
			if z == lastNode {
				continue // several finger identifiers resolve to one node
			}
			children = append(children, child{node: z})
			lastNode = z
		}
		for i := range children {
			if i+1 < len(children) {
				children[i].limit = s.Sub(n.ring.IDAt(children[i+1].node), 1)
			} else {
				children[i].limit = t.k
			}
		}
		for _, ch := range children {
			if err := tree.Deliver(x, ch.node); err != nil {
				return err
			}
			queue = append(queue, task{node: ch.node, k: ch.limit})
		}
	}
	return nil
}
