// Package camkoorde implements CAM-Koorde (Section 4 of the paper): a
// capacity-aware de Bruijn-style overlay in which node x keeps exactly c_x
// neighbors, derived by shifting x to the RIGHT and replacing high-order
// bits — the opposite of Koorde's left shift. Right-shifting spreads a
// node's neighbors evenly around the identifier ring, which is what makes
// the flooded multicast trees balanced.
//
// Neighbor identifiers of node x with capacity c_x >= 4 over N = 2^b
// (Section 4.1):
//
//   - basic group (4): predecessor(x), successor(x), and the nodes
//     responsible for x/2 and 2^{b-1} + x/2;
//   - second group: s = ⌊log2(c_x - 4)⌋; if s > 1, t = 2^s identifiers
//     i·2^{b-s} + x/2^s for i ∈ [0, t); otherwise t = 0;
//   - third group: t' = c_x - 4 - t, s' = s + 1, identifiers
//     i·2^{b-s'} + x/2^{s'} for i ∈ [0, t').
//
// Lookup (Section 4.2) forwards along neighbors sharing progressively more
// "ps-common" bits with the target (prefix of the node id matching a suffix
// of the target id). Multicast (Section 4.3) floods: a node forwards the
// message to every neighbor that has not already received it; the dedup
// handshake makes the result an implicit tree (a BFS tree of the neighbor
// digraph rooted at the source).
//
// The group sizes (GroupSizes), the slot recipes (SlotAt, Slot) and the
// lookup's digit step (NextShift) are exported: the dynamic runtime in
// internal/runtime builds its routing table and routes its lookups with
// them.
package camkoorde

import (
	"fmt"
	"sync"

	"camcast/internal/multicast"
	"camcast/internal/ring"
	"camcast/internal/topology"
)

// MinCapacity is the smallest capacity CAM-Koorde supports: the basic
// neighbor group alone has four members (Section 4.1).
const MinCapacity = 4

// Network is a CAM-Koorde overlay over a static membership snapshot.
type Network struct {
	ring *topology.Ring
	caps []int
}

// New builds a CAM-Koorde network over the given ring. caps[i] is the
// capacity of the node at ring position i and must be >= MinCapacity.
func New(r *topology.Ring, caps []int) (*Network, error) {
	if r == nil {
		return nil, fmt.Errorf("camkoorde: nil ring")
	}
	if len(caps) != r.Len() {
		return nil, fmt.Errorf("camkoorde: %d capacities for %d nodes", len(caps), r.Len())
	}
	owned := make([]int, len(caps))
	copy(owned, caps)
	for i, c := range owned {
		if c < MinCapacity {
			return nil, fmt.Errorf("camkoorde: node %d capacity %d below minimum %d", i, c, MinCapacity)
		}
	}
	return &Network{ring: r, caps: owned}, nil
}

// Ring returns the underlying membership snapshot.
func (n *Network) Ring() *topology.Ring { return n.ring }

// Capacity returns the capacity of the node at ring position pos.
func (n *Network) Capacity(pos int) int { return n.caps[pos] }

// GroupSizes returns the Section 4.1 sizes of the second and third
// neighbour groups of a node with capacity c, and the second group's shift
// s = ⌊log2(c-4)⌋: t = 2^s when s > 1 and 0 otherwise, and t' = c-4-t. The
// third group's shift is s+1. A capacity of 4 or less has only the basic
// group.
func GroupSizes(c int) (shift uint, t, tPrime int) {
	extra := c - 4
	if extra <= 0 {
		return 0, 0, 0
	}
	shift = ring.Log2Floor(uint64(extra))
	if shift > 1 {
		t = 1 << shift
	}
	return shift, t, extra - t
}

// Slot is one de Bruijn neighbour slot of Section 4.1: the identifier
// Pattern·2^{b-Shift} + x/2^{Shift} of a node x, in neighbour group Group.
type Slot struct {
	Group   Group
	Pattern uint64
	Shift   uint
}

// ID returns the slot's neighbour identifier for the node x.
func (sl Slot) ID(s ring.Space, x ring.ID) ring.ID {
	return s.TopBits(sl.Pattern, sl.Shift) | s.Shr(x, sl.Shift)
}

// Index returns the slot's position in the slot list of a node with
// capacity c (see SlotAt): the basic group's two patterns, then the
// second group's t, then the third group's t'.
func (sl Slot) Index(c int) int {
	switch sl.Group {
	case GroupBasic:
		return int(sl.Pattern)
	case GroupSecond:
		return 2 + int(sl.Pattern)
	}
	_, t, _ := GroupSizes(c)
	return 2 + t + int(sl.Pattern)
}

// SlotCount returns how many de Bruijn slots a node with capacity c keeps:
// the basic group's x/2 and 2^{b-1}+x/2 plus the second and third groups.
// Its predecessor and successor, the rest of the basic group, are ring
// pointers rather than slots.
func SlotCount(c int) int {
	_, t, tPrime := GroupSizes(c)
	return 2 + t + tPrime
}

// SlotAt returns slot i, 0 <= i < SlotCount(c), of a node with capacity c.
func SlotAt(c, i int) Slot {
	shift, t, _ := GroupSizes(c)
	switch {
	case i < 2:
		return Slot{Group: GroupBasic, Pattern: uint64(i), Shift: 1}
	case i < 2+t:
		return Slot{Group: GroupSecond, Pattern: uint64(i - 2), Shift: shift}
	}
	return Slot{Group: GroupThird, Pattern: uint64(i - 2 - t), Shift: shift + 1}
}

// Groups returns the three neighbor identifier groups of the node at ring
// position pos, before resolution to physical nodes. The basic group is
// returned as the identifiers of the predecessor and successor *nodes* plus
// the two de Bruijn identifiers x/2 and 2^{b-1}+x/2.
func (n *Network) Groups(pos int) (basic, second, third []ring.ID) {
	s := n.ring.Space()
	x := n.ring.IDAt(pos)
	c := n.caps[pos]
	basic = []ring.ID{n.ring.IDAt(n.ring.Predecessor(pos)), n.ring.IDAt(n.ring.Successor(pos))}
	for i, m := 0, SlotCount(c); i < m; i++ {
		sl := SlotAt(c, i)
		switch sl.Group {
		case GroupBasic:
			basic = append(basic, sl.ID(s, x))
		case GroupSecond:
			second = append(second, sl.ID(s, x))
		case GroupThird:
			third = append(third, sl.ID(s, x))
		}
	}
	return basic, second, third
}

// NeighborNodes resolves the node's neighbor identifiers to distinct ring
// positions, excluding the node itself. Identifiers in the second and third
// groups resolve through "the node responsible for" (successor) semantics.
func (n *Network) NeighborNodes(pos int) []int {
	return n.AppendNeighborNodes(make([]int, 0, n.caps[pos]), pos)
}

// AppendNeighborNodes appends the node's distinct neighbor positions
// (excluding pos itself) to dst and returns the extended slice. It is the
// allocation-free core of NeighborNodes: the predecessor, the successor
// and the node's slots (SlotAt) are resolved on the fly, and duplicates
// are removed by scanning the appended window (at most c_x entries), so a
// flood can reuse one buffer across the whole build.
func (n *Network) AppendNeighborNodes(dst []int, pos int) []int {
	start := len(dst)
	add := func(p int) {
		if p == pos {
			return
		}
		for _, q := range dst[start:] {
			if q == p {
				return
			}
		}
		dst = append(dst, p)
	}
	s := n.ring.Space()
	x := n.ring.IDAt(pos)
	c := n.caps[pos]
	add(n.ring.Predecessor(pos))
	add(n.ring.Successor(pos))
	for i, m := 0, SlotCount(c); i < m; i++ {
		add(n.ring.Responsible(SlotAt(c, i).ID(s, x)))
	}
	return dst
}

// Lookup resolves the node responsible for identifier k starting from the
// node at position from, per the LOOKUP routine of Section 4.2. As the
// paper prescribes for sparse rings ("we still calculate the chain of
// neighbor identifiers in the above way, which essentially transforms
// identifier x to identifier k in a series of steps, each step adding one
// or more bits from k"), the routing state is the calculated identifier
// chain itself: each hop shifts the next group of k's bits into the
// imaginary identifier from the left — preferring the third group's wider
// shift, then the second group's, then the basic group's single bit — and
// forwards to the node responsible for the result. After all b bits are
// injected the imaginary identifier IS k and the current node is
// responsible for it. Carrying the calculated identifier (rather than
// re-deriving it from each hop's resolved node id) is what keeps the chain
// immune to sparse-ring resolution drift.
//
// Returns the responsible node's position and the forwarding path
// (starting node included).
func (n *Network) Lookup(from int, k ring.ID) (resp int, path []int) {
	s := n.ring.Space()
	b := s.Bits()
	x := from
	path = append(path, x)
	img := n.ring.IDAt(x) // the calculated (imaginary) identifier
	injected := uint(0)   // how many of k's bits have been shifted in

	for hops := uint(0); hops <= b+2; hops++ {
		xid := n.ring.IDAt(x)
		pred := n.ring.Predecessor(x)
		succ := n.ring.Successor(x)
		// Lines 1-4: x or its successor responsible?
		if n.ring.Len() == 1 || s.InOC(k, n.ring.IDAt(pred), xid) {
			return x, path
		}
		if s.InOC(k, xid, n.ring.IDAt(succ)) {
			return succ, path
		}
		if injected >= b {
			break // chain exhausted (safety net; the landing above fires first)
		}

		sl := NextShift(n.caps[x], k, injected, b)
		img = sl.ID(s, img)
		injected += sl.Shift
		x = n.ring.Responsible(img)
		path = append(path, x)
	}

	// Defensive monotone finish: walk clockwise through the best preceding
	// neighbor. Unreachable in practice — the imaginary chain lands exactly
	// on responsible(k) — but it keeps Lookup total for any inputs.
	for {
		xid := n.ring.IDAt(x)
		pred := n.ring.Predecessor(x)
		succ := n.ring.Successor(x)
		if s.InOC(k, n.ring.IDAt(pred), xid) {
			return x, path
		}
		if s.InOC(k, xid, n.ring.IDAt(succ)) {
			return succ, path
		}
		next := succ
		bestDist := s.Dist(n.ring.IDAt(succ), k)
		for _, p := range n.NeighborNodes(x) {
			pid := n.ring.IDAt(p)
			if !s.InOC(pid, xid, k) {
				continue
			}
			if d := s.Dist(pid, k); d < bestDist {
				next, bestDist = p, d
			}
		}
		x = next
		path = append(path, x)
	}
}

// Group identifies which of the Section 4.1 neighbor groups a slot
// belongs to.
type Group int

// The three CAM-Koorde neighbor groups.
const (
	GroupBasic  Group = iota // x/2 and 2^{b-1}+x/2: shift 1, patterns {0,1}
	GroupSecond              // shift s = ⌊log2(c-4)⌋, all 2^s patterns
	GroupThird               // shift s+1, patterns below t' = c-4-2^s
)

// NextShift is one digit-shift step of the Section 4.2 LOOKUP chain for a
// node of capacity c: given that `injected` of target k's bits (counting
// from bit 0 upward) have already been shifted into the imaginary
// identifier, it returns the slot of the widest shift the capacity affords
// (third -> second -> basic preference), clamped so the chain never
// injects past b bits, whose pattern is k's next Shift bits. The caller
// advances its imaginary identifier img to the slot's ID(s, img) and
// forwards to the neighbor holding the slot. Callers that only want to
// resolve the top T bits of k (the live runtime's truncated routing
// cursor) call with injected = b - left, where left <= T counts the bits
// still to inject.
func NextShift(c int, k ring.ID, injected, b uint) Slot {
	remaining := b - injected
	bits := func(width uint) uint64 {
		return (k >> injected) & ((uint64(1) << width) - 1)
	}
	shift, t, tPrime := GroupSizes(c)
	// Third group: shift s+1, but only patterns below t' exist.
	if s3 := shift + 1; tPrime > 0 && s3 <= remaining {
		if want := bits(s3); want < uint64(tPrime) {
			return Slot{Group: GroupThird, Pattern: want, Shift: s3}
		}
	}
	// Second group: shift s, all 2^s patterns exist.
	if t > 0 && shift <= remaining {
		return Slot{Group: GroupSecond, Pattern: bits(shift), Shift: shift}
	}
	// Basic group: x/2 and 2^{b-1}+x/2 shift one bit with patterns {0, 1}.
	return Slot{Group: GroupBasic, Pattern: bits(1), Shift: 1}
}

// BuildTree runs the flooding MULTICAST routine of Section 4.3 from the
// source at ring position src: every node, upon first receiving the message,
// forwards it to each of its neighbors that has not yet received it. The
// implicit tree is therefore the BFS tree of the neighbor digraph rooted at
// the source. The returned redundant count is the number of suppressed
// duplicate offers (forwards that the dedup handshake stopped), a measure of
// the control overhead the paper calls "negligible when the message is
// large".
func (n *Network) BuildTree(src int) (tree *multicast.Tree, redundant int, err error) {
	tree, err = multicast.NewTree(n.ring.Len(), src)
	if err != nil {
		return nil, 0, err
	}
	redundant, err = n.flood(tree, src)
	if err != nil {
		return nil, 0, err
	}
	return tree, redundant, nil
}

// BuildTreeInto rebuilds the flood tree from src into tree, which must span
// exactly Ring().Len() nodes. The tree is Reset first, so a caller can reuse
// one allocation across many sources; see Tree.Reset.
func (n *Network) BuildTreeInto(tree *multicast.Tree, src int) (redundant int, err error) {
	if tree == nil {
		return 0, fmt.Errorf("camkoorde: nil tree")
	}
	if tree.Len() != n.ring.Len() {
		return 0, fmt.Errorf("camkoorde: tree spans %d nodes, ring has %d", tree.Len(), n.ring.Len())
	}
	if err := tree.Reset(src); err != nil {
		return 0, err
	}
	return n.flood(tree, src)
}

// floodScratch recycles the BFS queue and the neighbor buffer across builds,
// including concurrent ones from multiple experiment workers.
var floodScratch = sync.Pool{New: func() any { return &struct{ queue, nbuf []int }{} }}

// flood runs the BFS over the neighbor digraph; tree must already be rooted
// at src.
func (n *Network) flood(tree *multicast.Tree, src int) (redundant int, err error) {
	sc := floodScratch.Get().(*struct{ queue, nbuf []int })
	queue := sc.queue[:0]
	defer func() { sc.queue = queue[:0]; floodScratch.Put(sc) }()
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		sc.nbuf = n.AppendNeighborNodes(sc.nbuf[:0], x)
		for _, p := range sc.nbuf {
			if tree.Received(p) {
				redundant++
				continue
			}
			if err := tree.Deliver(x, p); err != nil {
				return 0, err
			}
			queue = append(queue, p)
		}
	}
	return redundant, nil
}
