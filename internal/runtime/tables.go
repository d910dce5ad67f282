package runtime

import (
	"sort"
	"sync"

	"camcast/internal/obsv"
	"camcast/internal/ring"
)

// tableKey addresses one CAM-Chord neighbor slot x_{level,seq}.
type tableKey struct {
	level uint32
	seq   uint32
}

// packed orders keys the way specFor emits slots: ascending (level, seq).
func (k tableKey) packed() uint64 { return uint64(k.level)<<32 | uint64(k.seq) }

// Slot identifier forms. A slot's target identifier is a pure function of
// the node's own identifier x, so the table layout never stores per-node
// identifiers — it stores the recipe.
const (
	specChord  uint8 = iota // id = space.Add(x, a)           (x_{i,j} = x + j*c^i, Section 3.1)
	specKoorde              // id = TopBits(a, b) | Shr(x, b) (de Bruijn groups, Section 4.1)
)

// slotSpec is one routing-table slot recipe: the slot key plus the
// parameters that turn a node identifier into the slot's target.
type slotSpec struct {
	key  tableKey
	kind uint8
	a, b uint64
}

// tableSpec is the immutable routing-table layout shared by every node
// with the same (identifier space, mode, capacity): which slots exist and
// how each slot's target identifier derives from the node's own. Nodes
// used to carry this per instance — a targets slice plus a key->index map,
// several KB per member; now a membership of a million nodes holds a few
// dozen specs between them and computes slot identifiers on demand.
type tableSpec struct {
	slots []slotSpec // ascending (level, seq); appendKoordeNeighbors and replay rely on this order
}

func (ts *tableSpec) len() int { return len(ts.slots) }

// id computes slot i's target identifier for a node with identifier x.
func (ts *tableSpec) id(s ring.Space, x ring.ID, i int) ring.ID {
	sp := &ts.slots[i]
	if sp.kind == specChord {
		return s.Add(x, sp.a)
	}
	return s.TopBits(sp.a, uint(sp.b)) | s.Shr(x, uint(sp.b))
}

// slotIndex resolves a tableKey to its slot index by binary search over the
// sorted slot list — the per-node key->index map this replaces cost ~3KB
// per member for a lookup that happens once per planned child segment.
func (ts *tableSpec) slotIndex(key tableKey) (int, bool) {
	want := key.packed()
	i := sort.Search(len(ts.slots), func(j int) bool { return ts.slots[j].key.packed() >= want })
	if i < len(ts.slots) && ts.slots[i].key == key {
		return i, true
	}
	return 0, false
}

// specKey identifies one shared layout.
type specKey struct {
	bits     uint
	mode     Mode
	capacity int
}

var specCache sync.Map // specKey -> *tableSpec

// specFor returns the shared routing-table layout for (space, mode,
// capacity), building and caching it on first use. CAM-Chord: x_{i,j} =
// x + j*c^i (Section 3.1). CAM-Koorde: the non-ring basic identifiers x/2
// and 2^{b-1}+x/2 plus the second and third groups (Section 4.1);
// predecessor/successor come from ring maintenance.
func specFor(s ring.Space, mode Mode, capacity int) *tableSpec {
	k := specKey{bits: s.Bits(), mode: mode, capacity: capacity}
	if v, ok := specCache.Load(k); ok {
		return v.(*tableSpec)
	}
	ts := &tableSpec{}
	c := uint64(capacity)
	switch mode {
	case ModeCAMChord:
		level := uint32(0)
		for pow := uint64(1); pow < s.Size(); pow *= c {
			for j := uint64(1); j <= c-1; j++ {
				d := j * pow
				if d >= s.Size() {
					break
				}
				ts.slots = append(ts.slots, slotSpec{
					key: tableKey{level: level, seq: uint32(j)}, kind: specChord, a: d,
				})
			}
			if pow > s.Size()/c {
				break
			}
			level++
		}
	case ModeCAMKoorde:
		// x/2 is TopBits(0,1)|Shr(x,1); 2^{b-1}+x/2 is TopBits(1,1)|Shr(x,1).
		ts.slots = append(ts.slots,
			slotSpec{key: tableKey{level: 0, seq: 0}, kind: specKoorde, a: 0, b: 1},
			slotSpec{key: tableKey{level: 0, seq: 1}, kind: specKoorde, a: 1, b: 1},
		)
		remaining := capacity - 4
		if remaining <= 0 {
			break
		}
		shift := ring.Log2Floor(uint64(remaining))
		t := 0
		if shift > 1 {
			t = 1 << shift
			for i := 0; i < t; i++ {
				ts.slots = append(ts.slots, slotSpec{
					key: tableKey{level: 1, seq: uint32(i)}, kind: specKoorde,
					a: uint64(i), b: uint64(shift),
				})
			}
		}
		tPrime := remaining - t
		sPrime := shift + 1
		for i := 0; i < tPrime; i++ {
			ts.slots = append(ts.slots, slotSpec{
				key: tableKey{level: 2, seq: uint32(i)}, kind: specKoorde,
				a: uint64(i), b: uint64(sPrime),
			})
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
	all := n.spec.slots
	if len(all) == 0 {
		return
	}
	if batch > len(all) {
		batch = len(all)
	}
	for i := 0; i < batch; i++ {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		idx := n.cursor % len(all)
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
		n.noteTopologyChange()
		if old.Addr != info.Addr {
			key := all[idx].key
			n.emitf(obsv.KindRepair,
				"slot (%d,%d) id=%d -> %s", key.level, key.seq, id, info.Addr)
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
