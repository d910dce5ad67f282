package runtime

import (
	"sort"
	"sync"

	"camcast/internal/camchord"
	"camcast/internal/camkoorde"
	"camcast/internal/obsv"
	"camcast/internal/ring"
)

// slotRecipe turns a node identifier into one routing-table slot's target
// identifier: camchord.Slot (x_{i,j} = x + j·c^i, Section 3.1) or
// camkoorde.Slot (the de Bruijn groups, Section 4.1).
type slotRecipe interface {
	ID(s ring.Space, x ring.ID) ring.ID
}

// tableSpec is the immutable routing-table layout shared by every node
// with the same (identifier space, mode, capacity): the overlay package's
// slot recipes, in the package's slot-index order, so a slot's index in
// the node's table is its camchord.Slot.Index or camkoorde.Slot.Index.
// Slot identifiers are computed on demand, and a membership of a million
// nodes holds a few dozen specs between them.
type tableSpec struct {
	slots []slotRecipe // appendKoordeNeighbors and replay rely on this order
}

func (ts *tableSpec) len() int { return len(ts.slots) }

// id computes slot i's target identifier for a node with identifier x.
func (ts *tableSpec) id(s ring.Space, x ring.ID, i int) ring.ID {
	return ts.slots[i].ID(s, x)
}

// specKey identifies one shared layout.
type specKey struct {
	bits     uint
	mode     Mode
	capacity int
}

var specCache sync.Map // specKey -> *tableSpec

// specFor returns the shared routing-table layout for (space, mode,
// capacity), building and caching it on first use. A CAM-Koorde table
// holds the de Bruijn slots only; predecessor and successor come from
// ring maintenance.
func specFor(s ring.Space, mode Mode, capacity int) *tableSpec {
	k := specKey{bits: s.Bits(), mode: mode, capacity: capacity}
	if v, ok := specCache.Load(k); ok {
		return v.(*tableSpec)
	}
	ts := &tableSpec{}
	switch mode {
	case ModeCAMChord:
		camchord.Slots(s, capacity, func(sl camchord.Slot) { ts.slots = append(ts.slots, sl) })
	case ModeCAMKoorde:
		for i, m := 0, camkoorde.SlotCount(capacity); i < m; i++ {
			ts.slots = append(ts.slots, camkoorde.SlotAt(capacity, i))
		}
	}
	v, _ := specCache.LoadOrStore(k, ts)
	return v.(*tableSpec)
}

// FixOnce refreshes a batch of routing-table slots (round-robin, like
// Chord's fix_fingers) by looking up each slot's identifier. FixAll
// refreshes every slot; tests and joining nodes use it to converge
// immediately.
func (n *Node) FixOnce() {
	n.fix(4)
}

// FixAll refreshes the entire routing table in one pass.
func (n *Node) FixAll() {
	n.fix(n.spec.len())
}

func (n *Node) fix(batch int) {
	size := n.spec.len()
	if size == 0 {
		return
	}
	if batch > size {
		batch = size
	}
	for i := 0; i < batch; i++ {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		idx := n.cursor % size
		n.cursor++
		n.mu.Unlock()

		id := n.spec.id(n.space, n.self.ID, idx)
		info, _, err := n.FindSuccessor(id)
		if err != nil {
			continue // retry on a later pass
		}
		n.mu.Lock()
		old := n.setSlotLocked(idx, info)
		n.mu.Unlock()
		if old != info {
			n.noteTopologyChange()
			n.emitf(obsv.KindRepair, "slot %d id=%d -> %s", idx, id, info.Addr)
		}
	}
}

// routingCandidates returns candidate next hops for a lookup of k: known
// neighbors whose identifiers lie strictly inside (self, k], closest
// preceding k first, deduplicated, excluding self and currently-suspect
// peers (which just failed an RPC and would only burn a timeout). Callers
// fall through the list when a candidate is unreachable.
func (n *Node) routingCandidates(k ring.ID) []NodeInfo {
	n.mu.Lock()
	seen := make(map[string]bool, len(n.slotRefs)+len(n.succRefs)+1)
	cands := make([]NodeInfo, 0, len(n.slotRefs)+len(n.succRefs))
	add := func(info NodeInfo) {
		if info.zero() || info.Addr == n.self.Addr || seen[info.Addr] || n.isSuspect(info.Addr) {
			return
		}
		if !n.space.InOC(info.ID, n.self.ID, k) {
			return
		}
		seen[info.Addr] = true
		cands = append(cands, info)
	}
	for _, ref := range n.slotRefs {
		add(n.arena.Resolve(ref))
	}
	for _, ref := range n.succRefs {
		add(n.arena.Resolve(ref))
	}
	n.mu.Unlock()

	sort.Slice(cands, func(i, j int) bool {
		return n.space.Dist(cands[i].ID, k) < n.space.Dist(cands[j].ID, k)
	})
	if len(cands) > 8 {
		cands = cands[:8]
	}
	return cands
}
