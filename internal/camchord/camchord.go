// Package camchord implements CAM-Chord (Section 3 of the paper): the
// capacity-aware generalization of Chord in which a node x of capacity c_x
// keeps neighbors responsible for the identifiers
//
//	x_{i,j} = (x + j * c_x^i) mod N,  j ∈ [1 .. c_x-1],  i ∈ [0 .. ⌈log N / log c_x⌉ - 1],
//
// looks up identifiers greedily through those neighbors (Section 3.2), and
// multicasts by recursively splitting the identifier segment (x, k] across
// up to c_x children as evenly as possible (Section 3.4). The multicast tree
// is implicit: no tree state is kept anywhere; the tree emerges from the
// collective execution of the Multicast routine.
//
// This package is the simulator-mode implementation: it resolves "the node
// responsible for identifier y" against a static topology.Ring snapshot. The
// dynamic runtime in internal/runtime builds its routing table from Slots
// and splits its multicast segments with Plan, so the two differ only in
// how that question is answered.
package camchord

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"camcast/internal/multicast"
	"camcast/internal/ring"
	"camcast/internal/topology"
)

// MinCapacity is the smallest capacity CAM-Chord supports: the level/
// sequence arithmetic (equations 1-2) requires a branching base of at
// least 2.
const MinCapacity = 2

// Spacing selects how MULTICAST picks its level-(i-1) children (Lines
// 10-14 of the routine).
type Spacing int

// Spacing modes.
const (
	// SpacingEven spreads the remaining children evenly over the lower
	// level, the paper's design for balanced subtrees.
	SpacingEven Spacing = iota + 1
	// SpacingContiguous naively takes the highest consecutive sequence
	// numbers; subtree sizes become badly skewed. Kept as the ablation
	// baseline for the "even separation" design choice.
	SpacingContiguous
)

// Network is a CAM-Chord overlay over a static membership snapshot.
type Network struct {
	ring    *topology.Ring
	caps    []int // capacity per ring position
	spacing Spacing
}

// New builds a CAM-Chord network over the given ring. caps[i] is the
// capacity of the node at ring position i and must be >= MinCapacity.
func New(r *topology.Ring, caps []int) (*Network, error) {
	return NewWithSpacing(r, caps, SpacingEven)
}

// NewWithSpacing builds a CAM-Chord network with an explicit child-spacing
// mode (see Spacing).
func NewWithSpacing(r *topology.Ring, caps []int, spacing Spacing) (*Network, error) {
	if r == nil {
		return nil, fmt.Errorf("camchord: nil ring")
	}
	if spacing != SpacingEven && spacing != SpacingContiguous {
		return nil, fmt.Errorf("camchord: unknown spacing mode %d", spacing)
	}
	if len(caps) != r.Len() {
		return nil, fmt.Errorf("camchord: %d capacities for %d nodes", len(caps), r.Len())
	}
	owned := make([]int, len(caps))
	copy(owned, caps)
	for i, c := range owned {
		if c < MinCapacity {
			return nil, fmt.Errorf("camchord: node %d capacity %d below minimum %d", i, c, MinCapacity)
		}
	}
	return &Network{ring: r, caps: owned, spacing: spacing}, nil
}

// Ring returns the underlying membership snapshot.
func (n *Network) Ring() *topology.Ring { return n.ring }

// Capacity returns the capacity of the node at ring position pos.
func (n *Network) Capacity(pos int) int { return n.caps[pos] }

// Slot is one neighbour slot x_{i,j} = x + j·c^i of Section 3.1: level
// i, sequence number j ∈ [1, c), and the slot's offset j·c^i from x.
type Slot struct {
	Level  int
	Seq    uint64
	Offset uint64
}

// ID returns the slot's neighbour identifier for the node x.
func (sl Slot) ID(s ring.Space, x ring.ID) ring.ID { return s.Add(x, sl.Offset) }

// Index returns the slot's position in the ladder Slots enumerates for
// capacity c: every level below the last is full, so it is i·(c-1)+j-1.
func (sl Slot) Index(c int) int { return sl.Level*(c-1) + int(sl.Seq) - 1 }

// Slots calls yield for every neighbour slot of a node of capacity c in
// space s, in ascending (i, j) order: the offsets j·c^i below the size of
// the space. The k-th call is the slot whose Index is k. yield must not
// retain the callback's arguments beyond the call.
func Slots(s ring.Space, c int, yield func(Slot)) {
	cc := uint64(c)
	for i, pow := 0, uint64(1); pow < s.Size(); i, pow = i+1, pow*cc {
		for j := uint64(1); j <= cc-1; j++ {
			d := j * pow
			if d >= s.Size() {
				break
			}
			yield(Slot{Level: i, Seq: j, Offset: d})
		}
		if pow > s.Size()/cc { // next multiply would overflow past the space
			break
		}
	}
}

// NeighborIDs enumerates the neighbor identifiers x_{i,j} of the node at
// ring position pos, in ascending (i, j) order. This is the full identifier
// list of Section 3.1; several identifiers may resolve to the same physical
// node, exactly as in Chord.
func (n *Network) NeighborIDs(pos int) []ring.ID {
	s := n.ring.Space()
	x := n.ring.IDAt(pos)
	out := make([]ring.ID, 0, 4*n.caps[pos])
	Slots(s, n.caps[pos], func(sl Slot) { out = append(out, sl.ID(s, x)) })
	return out
}

// neighborScratch recycles the sorted dedup slice across NeighborNodes
// builds, including concurrent ones from multiple experiment workers. A
// sorted slice beats the former per-call map[int]bool here: neighbor sets
// are small (≲ 4·c entries), so binary search plus insertion-shift stays
// cache-resident and the only allocations are the scratch's one-time growth.
var neighborScratch = sync.Pool{New: func() any { return &neighborSet{} }}

type neighborSet struct{ seen []int }

// NeighborNodes resolves NeighborIDs to distinct ring positions (excluding
// pos itself). This is the actual routing-table contents a live node would
// maintain.
func (n *Network) NeighborNodes(pos int) []int {
	return n.AppendNeighborNodes(make([]int, 0, 4*n.caps[pos]), pos)
}

// AppendNeighborNodes appends the node's distinct neighbor positions
// (excluding pos itself) to dst in first-seen order and returns the
// extended slice, resolving the neighbor identifiers on the fly so a
// lookup sweep can reuse one buffer across the whole run.
func (n *Network) AppendNeighborNodes(dst []int, pos int) []int {
	s := n.ring.Space()
	x := n.ring.IDAt(pos)
	sc := neighborScratch.Get().(*neighborSet)
	seen := sc.seen[:0]
	Slots(s, n.caps[pos], func(sl Slot) {
		p := n.ring.Responsible(sl.ID(s, x))
		if p == pos {
			return
		}
		if i, ok := slices.BinarySearch(seen, p); !ok {
			seen = slices.Insert(seen, i, p)
			dst = append(dst, p)
		}
	})
	sc.seen = seen
	neighborScratch.Put(sc)
	return dst
}

// Lookup resolves the node responsible for identifier k starting from the
// node at position from, following the LOOKUP routine of Section 3.2. It
// returns the position of the responsible node and the forwarding path
// (inclusive of the starting node, exclusive of the returned node unless the
// start is itself responsible).
//
// Unlike the paper's pseudo-code, which assumes a ring dense enough that the
// greedy neighbor x̂_{i,j} always lies inside (x, k], this implementation
// also handles the sparse-ring case where resolution wraps all the way back
// to the querying node.
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

		c := uint64(n.caps[x])
		_, seq, pow := s.LevelSeq(xid, k, c)
		// The greedy neighbor x̂_{i,j}: x_{i,j} is the neighbor identifier
		// counter-clockwise closest to k (equations 1-2).
		y := s.Add(xid, seq*pow)
		z := n.ring.Responsible(y)
		if z == x {
			// Sparse ring: no member in [y, x), so no member in [y, k]
			// either — x itself is responsible for k. (The paper's
			// pseudo-code assumes a dense ring and misses this case.)
			return x, path
		}
		if s.InOC(k, xid, n.ring.IDAt(z)) {
			// k ∈ (x, x̂_{i,j}]: z is responsible for k (Lines 6-7).
			return z, path
		}
		// Otherwise x̂_{i,j} precedes k: forward greedily (Line 9).
		x = z
		path = append(path, x)
	}
}

// task is one pending invocation x.MULTICAST(msg, k): "node must deliver to
// every node in (node, k]".
type task struct {
	node int
	k    ring.ID
}

// queuePool recycles the per-build work queue so repeated BuildTreeInto
// calls (the experiment engine's hot loop) do not re-make it per source.
// Safe under concurrent builds from multiple goroutines.
var queuePool = sync.Pool{New: func() any { q := make([]task, 0, 1024); return &q }}

// BuildTree runs the MULTICAST routine of Section 3.4 from the source at
// ring position src and returns the resulting implicit multicast tree.
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

// BuildTreeInto rebuilds the implicit multicast tree from src into tree,
// which must span exactly Ring().Len() nodes. The tree is Reset first, so a
// caller can reuse one allocation across many sources; see Tree.Reset.
func (n *Network) BuildTreeInto(tree *multicast.Tree, src int) error {
	if tree == nil {
		return fmt.Errorf("camchord: nil tree")
	}
	if tree.Len() != n.ring.Len() {
		return fmt.Errorf("camchord: tree spans %d nodes, ring has %d", tree.Len(), n.ring.Len())
	}
	if err := tree.Reset(src); err != nil {
		return err
	}
	return n.buildInto(tree, src)
}

// Child is one child of the invocation x.MULTICAST(msg, k) (Lines 6-15 of
// Section 3.4): the identifier Y whose responsible node becomes the child,
// and the end of the segment (child, SegEnd] delegated to it. Slot is the
// neighbour slot holding Y, or, when Succ is set, the child is the
// successor x̂_{0,1} (Line 15) and Slot is zero. Width is the slot's span
// of identifiers, c^i at level i and 1 for the successor: the Section 5.2
// freedom in choosing the neighbour.
type Child struct {
	Y, SegEnd ring.ID
	Slot      Slot
	Succ      bool
	Width     uint64
}

// Plan splits the segment (x, k] of a node x with capacity c across up to
// c children, calling yield for each in dispatch order: the level-i
// neighbours preceding k, highest first (Lines 6-9); then c - j - 1
// level-(i-1) neighbours placed by spacing (Lines 10-14); then the
// successor (Line 15). Each child's segment ends where the previous one
// began, so the children partition (x, k]. The split is pure ring
// arithmetic: a child whose responsible node lies outside its segment
// (an empty segment) is the caller's to skip. yield must not retain the
// callback's arguments beyond the call.
func Plan(s ring.Space, x, k ring.ID, c int, spacing Spacing, yield func(Child)) {
	if s.Dist(x, k) == 0 {
		return
	}
	cc := uint64(c)
	child := func(y ring.ID, sl Slot, succ bool, width uint64) {
		if !s.InOC(y, x, k) {
			return
		}
		yield(Child{Y: y, SegEnd: k, Slot: sl, Succ: succ, Width: width})
		k = s.Sub(y, 1)
	}

	level, seq, pow := s.LevelSeq(x, k, cc)
	// Lines 6-9: level-i neighbors preceding k, highest first.
	for m := seq; m >= 1; m-- {
		child(s.Add(x, m*pow), Slot{Level: int(level), Seq: m, Offset: m * pow}, false, pow)
	}

	// Lines 10-14: fill the remaining capacity with (c - seq - 1)
	// level-(i-1) neighbors. The paper's pseudo-code writes x̂_{i-1,⌊l⌋}
	// for the even spacing over [1, c), but its own worked example
	// (x̂_{2,2} for c=3, j=1, where l = 3 - 3/2 = 1.5) is consistent only
	// with rounding l up, so we use the ceiling.
	if level >= 1 {
		prevPow := pow / cc
		lower := func(j uint64) {
			child(s.Add(x, j*prevPow), Slot{Level: int(level) - 1, Seq: j, Offset: j * prevPow}, false, prevPow)
		}
		switch spacing {
		case SpacingEven:
			l := float64(c)
			step := float64(c) / float64(cc-seq)
			for m := int64(c) - int64(seq) - 1; m >= 1; m-- {
				l -= step
				j := uint64(math.Ceil(l))
				if j < 1 {
					j = 1
				}
				lower(j)
			}
		case SpacingContiguous:
			// Ablation baseline: take the (c-seq-1) highest sequence
			// numbers back to back, clustering children near the top of
			// the remaining segment.
			for j := cc - 1; j > seq && j >= 1; j-- {
				lower(j)
			}
		}
	}

	// Line 15: the successor x̂_{0,1}.
	child(s.Add(x, 1), Slot{}, true, 1)
}

// buildInto simulates the collective recursion with an explicit work queue;
// each queue entry is one invocation x.MULTICAST(msg, k), which forwards to
// the node responsible for each planned child's identifier when that node
// lies inside the child's segment. tree must already be rooted at src.
func (n *Network) buildInto(tree *multicast.Tree, src int) error {
	s := n.ring.Space()

	qp := queuePool.Get().(*[]task)
	queue := (*qp)[:0]
	defer func() { *qp = queue[:0]; queuePool.Put(qp) }()
	// The source initiates delivery to (x, x-1], i.e. the whole ring but x.
	queue = append(queue, task{node: src, k: s.Sub(n.ring.IDAt(src), 1)})

	var err error
	for head := 0; head < len(queue) && err == nil; head++ {
		x := queue[head].node
		xid := n.ring.IDAt(x)
		Plan(s, xid, queue[head].k, n.caps[x], n.spacing, func(ch Child) {
			z := n.ring.Responsible(ch.Y)
			if err != nil || z == x || !s.InOC(n.ring.IDAt(z), xid, ch.SegEnd) {
				return
			}
			if err = tree.Deliver(x, z); err == nil {
				queue = append(queue, task{node: z, k: ch.SegEnd})
			}
		})
	}
	return err
}
