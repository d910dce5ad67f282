package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"camcast/internal/ids"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// tableSnapshot resolves the node's current slot contents, indexed like
// its tableSpec. Unfilled slots are zero NodeInfos.
func (n *Node) tableSnapshot() []NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeInfo, len(n.slotRefs))
	for i, ref := range n.slotRefs {
		out[i] = n.arena.Resolve(ref)
	}
	return out
}

// equivSize picks the equivalence-test population per mode, trimmed under
// -short and under the race detector (whose instrumentation makes large
// rings take minutes).
//
// Both modes run the full 10k. CAM-Chord's table is distance-ordered, so
// the synchronized nearest-first sweep below keeps every convergence lookup
// within the hop budget at any size. CAM-Koorde's slots are de Bruijn
// images — all long-range, no short-first ladder — so its ramp instead
// relies on digit routing (lookup.go digitRoute): each joiner runs FixAll
// right after its join, whose lookups delegate their routing cursor to the
// joiner's already-converged successor and resolve in O(log n) digit hops.
// (Before digit routing, greedy closest-preceding forwarding degraded to a
// successor walk on koorde slots and capped this test at ~1.4k members.)
func equivSize(mode Mode) int {
	switch {
	case testing.Short():
		return 600
	case raceEnabled:
		return 1500
	default:
		return 10000
	}
}

// equivMember is one planned member: address, drawn capacity, and the ring
// identifier its address hashes to.
type equivMember struct {
	addr string
	cap  int
	id   ring.ID
}

// equivMembers plans size members with distinct ring identifiers (colliding
// addresses are skipped so both clusters see the same membership) and
// seeded heterogeneous capacity draws.
func equivMembers(space ring.Space, mode Mode, size int, seed int64) []equivMember {
	rng := rand.New(rand.NewSource(seed))
	h := ids.NewHasher(space)
	seen := make(map[ring.ID]bool, size)
	out := make([]equivMember, 0, size)
	for i := 0; len(out) < size; i++ {
		addr := fmt.Sprintf("m-%d", i)
		id := h.ID(addr)
		if seen[id] {
			continue
		}
		seen[id] = true
		capacity := 2 + rng.Intn(7)
		if mode == ModeCAMKoorde {
			capacity = 4 + rng.Intn(5)
		}
		out = append(out, equivMember{addr: addr, cap: capacity, id: id})
	}
	return out
}

// TestBulkEquivalence is the correctness anchor for assisted construction:
// a bulk-installed ring must carry byte-identical routing state —
// predecessor, successor list, and every table slot — to the same
// membership ramped incrementally and stabilized to a fixed point, for both
// CAM-Chord and CAM-Koorde.
func TestBulkEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeCAMChord, ModeCAMKoorde} {
		t.Run(mode.String(), func(t *testing.T) {
			size := equivSize(mode)
			space := ring.MustSpace(32)
			members := equivMembers(space, mode, size, 7)

			// Bulk cluster: one shared arena, parallel install.
			bnet := transport.NewNetwork(1)
			barena := NewNodeArena()
			bulk := make(map[string]*Node, size)
			bulkNodes := make([]*Node, size)
			for i, m := range members {
				n, err := NewNode(bnet, m.addr, Config{
					Space: space, Mode: mode, Capacity: m.cap, Arena: barena,
				})
				if err != nil {
					t.Fatal(err)
				}
				bulkNodes[i] = n
				bulk[m.addr] = n
			}
			defer func() {
				for _, n := range bulkNodes {
					n.Stop()
				}
			}()
			if err := BulkInstall(bulkNodes, BulkOptions{}); err != nil {
				t.Fatal(err)
			}

			// Incremental cluster: same addresses and capacity draws, ramped
			// one join at a time through the normal protocol operations.
			// The test's oracle picks each joiner's bootstrap (its successor
			// at join time) and pokes the joiner's ring predecessor with one
			// StabilizeOnce after the join — which node bootstraps whom is
			// immaterial to the final fixed point, but keeping ring
			// adjacency exact throughout means every join's lookup resolves
			// at its owner instead of ring-walking a membership whose
			// routing tables have not been fixed yet.
			inet := transport.NewNetwork(1)
			inc := make(map[string]*Node, size)
			nodes := make([]*Node, 0, size)
			joinedIDs := make([]ring.ID, 0, size)
			joinedAddrs := make([]string, 0, size)
			refresh := 0
			for i, m := range members {
				n, err := NewNode(inet, m.addr, Config{Space: space, Mode: mode, Capacity: m.cap})
				if err != nil {
					t.Fatal(err)
				}
				inc[m.addr] = n
				nodes = append(nodes, n)
				if i == 0 {
					if err := n.Bootstrap(); err != nil {
						t.Fatal(err)
					}
				} else {
					j := sort.Search(len(joinedIDs), func(k int) bool { return joinedIDs[k] >= m.id })
					if j == len(joinedIDs) {
						j = 0
					}
					if err := n.Join(joinedAddrs[j]); err != nil {
						t.Fatalf("join %s: %v", m.addr, err)
					}
					// The joiner notified its successor; one stabilize round
					// at its predecessor closes the other side of the splice
					// (pred adopts the joiner, the joiner learns its pred).
					p := (j - 1 + len(joinedIDs)) % len(joinedIDs)
					inc[joinedAddrs[p]].StabilizeOnce()
					// CAM-Koorde convergence leans on per-join table fill:
					// the joiner's all-long-range slots resolve by digit
					// routing through its successor's converged tables, so
					// every later lookup in the ring finds filled slots to
					// advance its cursor through. The rotating FixOnce
					// cohort stands in for the scheduler's periodic fix
					// maintenance: without it an early joiner's slots stay
					// resolved against the ring as of its join, digit
					// chains land n/s_join gaps from the owner, and the
					// landing walk eats the hop budget (observed p50=259
					// hops at 2k members). The cohort scales with ring
					// size — every live member refreshes on a fixed
					// interval, so the aggregate fix rate grows with n —
					// keeping each slot's staleness bounded by a constant
					// number of joins and landings a few gaps out.
					// (CAM-Chord skips both — its nearest-first
					// synchronized sweep below converges without seeding.)
					if mode == ModeCAMKoorde {
						n.FixAll()
						for r := 0; r < 4+len(nodes)/256; r++ {
							nodes[refresh%len(nodes)].FixOnce()
							refresh++
						}
					}
				}
				j := sort.Search(len(joinedIDs), func(k int) bool { return joinedIDs[k] >= m.id })
				joinedIDs = append(joinedIDs, 0)
				copy(joinedIDs[j+1:], joinedIDs[j:])
				joinedIDs[j] = m.id
				joinedAddrs = append(joinedAddrs, "")
				copy(joinedAddrs[j+1:], joinedAddrs[j:])
				joinedAddrs[j] = m.addr
			}
			defer func() {
				for _, n := range nodes {
					n.Stop()
				}
			}()

			// Stabilize to a fixed point: rounds until no predecessor or
			// successor list changes, then refresh every routing table once.
			prev := ""
			converged := false
			for r := 0; r < 64; r++ {
				for _, v := range nodes {
					v.StabilizeOnce()
				}
				var b strings.Builder
				for _, v := range nodes {
					p, _ := v.Predecessor()
					b.WriteString(p.Addr)
					b.WriteByte('|')
					for _, s := range v.SuccessorList() {
						b.WriteString(s.Addr)
						b.WriteByte(',')
					}
					b.WriteByte(';')
				}
				cur := b.String()
				if cur == prev {
					converged = true
					break
				}
				prev = cur
			}
			if !converged {
				t.Fatal("incremental ramp did not reach a stabilization fixed point in 64 rounds")
			}
			// Refresh routing tables to their own fixed point. Starting
			// from all-empty tables, a node fixing its farthest slots
			// would route as a pure successor walk and exhaust the hop
			// budget, so the first fill is a synchronized sweep: every
			// node fixes its next small batch of slots (nearest-first in
			// CAM-Chord's distance-ordered table) before any node moves
			// on, and each batch's lookups ride the shorter fingers the
			// previous batches installed everywhere. Then FixAll rounds
			// confirm the fixed point: the iteration ends when a full
			// refresh changes nothing.
			maxSlots := 0
			for _, v := range nodes {
				if l := v.spec.len(); l > maxSlots {
					maxSlots = l
				}
			}
			for r := 0; r*4 < maxSlots; r++ {
				for _, v := range nodes {
					v.FixOnce()
				}
			}
			prev = ""
			converged = false
			for r := 0; r < 8; r++ {
				for _, v := range nodes {
					v.FixAll()
				}
				var b strings.Builder
				for _, v := range nodes {
					for _, e := range v.tableSnapshot() {
						b.WriteString(e.Addr)
						b.WriteByte(',')
					}
					b.WriteByte(';')
				}
				cur := b.String()
				if cur == prev {
					converged = true
					break
				}
				prev = cur
			}
			if !converged {
				t.Fatal("routing tables did not reach a fixed point in 8 rounds")
			}

			// The two clusters must agree on every byte of routing state.
			for _, m := range members {
				bn, in := bulk[m.addr], inc[m.addr]
				bp, _ := bn.Predecessor()
				ip, _ := in.Predecessor()
				if bp != ip {
					t.Fatalf("%s predecessor: bulk %+v, incremental %+v", m.addr, bp, ip)
				}
				bs, is := bn.SuccessorList(), in.SuccessorList()
				if len(bs) != len(is) {
					t.Fatalf("%s successor list length: bulk %d, incremental %d", m.addr, len(bs), len(is))
				}
				for i := range bs {
					if bs[i] != is[i] {
						t.Fatalf("%s successor[%d]: bulk %+v, incremental %+v", m.addr, i, bs[i], is[i])
					}
				}
				bt, it := bn.tableSnapshot(), in.tableSnapshot()
				if len(bt) != len(it) {
					t.Fatalf("%s table size: bulk %d, incremental %d", m.addr, len(bt), len(it))
				}
				for i := range bt {
					if bt[i] != it[i] {
						t.Fatalf("%s slot %d: bulk %+v, incremental %+v", m.addr, i, bt[i], it[i])
					}
				}
			}
		})
	}
}

// TestBulkInstallSmallRing cross-checks an installed ring against the
// test's own successor oracle, including the pred/succ wrap.
func TestBulkInstallSmallRing(t *testing.T) {
	space := ring.MustSpace(32)
	members := equivMembers(space, ModeCAMChord, 64, 3)
	net := transport.NewNetwork(1)
	nodes := make([]*Node, len(members))
	for i, m := range members {
		n, err := NewNode(net, m.addr, Config{Space: space, Mode: ModeCAMChord, Capacity: m.cap})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	if err := BulkInstall(nodes, BulkOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}

	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })
	m := len(sorted)
	succOf := func(k ring.ID) NodeInfo {
		i := sort.Search(m, func(j int) bool { return sorted[j].Self().ID >= k })
		if i == m {
			i = 0
		}
		return sorted[i].Self()
	}
	for i, n := range sorted {
		if p, ok := n.Predecessor(); !ok || p != sorted[(i-1+m)%m].Self() {
			t.Fatalf("%s predecessor = %+v ok=%v, want %+v",
				n.Self().Addr, p, ok, sorted[(i-1+m)%m].Self())
		}
		succs := n.SuccessorList()
		if len(succs) != 4 {
			t.Fatalf("%s successor list has %d entries, want 4", n.Self().Addr, len(succs))
		}
		for j, s := range succs {
			if want := sorted[(i+1+j)%m].Self(); s != want {
				t.Fatalf("%s successor[%d] = %+v, want %+v", n.Self().Addr, j, s, want)
			}
		}
		for s, got := range n.tableSnapshot() {
			if want := succOf(n.spec.id(space, n.Self().ID, s)); got != want {
				t.Fatalf("%s slot %d = %+v, want %+v", n.Self().Addr, s, got, want)
			}
		}
	}
}

func TestBulkInstallSingle(t *testing.T) {
	space := ring.MustSpace(32)
	net := transport.NewNetwork(1)
	n, err := NewNode(net, "solo", Config{Space: space, Mode: ModeCAMChord, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := BulkInstall([]*Node{n}, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if p, ok := n.Predecessor(); !ok || p.Addr != "solo" {
		t.Fatalf("solo predecessor = %+v ok=%v, want self", p, ok)
	}
	if succs := n.SuccessorList(); len(succs) != 1 || succs[0].Addr != "solo" {
		t.Fatalf("solo successor list = %+v, want [self]", succs)
	}
}

func TestBulkInstallValidation(t *testing.T) {
	space := ring.MustSpace(32)
	net := transport.NewNetwork(1)
	mk := func(addr string, mode Mode) *Node {
		t.Helper()
		n, err := NewNode(net, addr, Config{Space: space, Mode: mode, Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	if err := BulkInstall(nil, BulkOptions{}); err == nil {
		t.Error("empty membership accepted")
	}

	started := mk("started", ModeCAMChord)
	if err := started.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := BulkInstall([]*Node{started}, BulkOptions{}); err == nil {
		t.Error("already-started node accepted")
	}
	started.Stop()
	if err := BulkInstall([]*Node{started}, BulkOptions{}); err == nil {
		t.Error("stopped node accepted")
	}

	a, b := mk("mode-a", ModeCAMChord), mk("mode-b", ModeCAMKoorde)
	if err := BulkInstall([]*Node{a, b}, BulkOptions{}); err == nil {
		t.Error("mixed-mode membership accepted")
	}
	a.Stop()
	b.Stop()

	// Two addresses hashing to the same identifier in a small space.
	small := ring.MustSpace(16)
	h := ids.NewHasher(small)
	seen := make(map[ring.ID]string)
	var dupA, dupB string
	for i := 0; dupB == ""; i++ {
		addr := fmt.Sprintf("d-%d", i)
		id := h.ID(addr)
		if prev, ok := seen[id]; ok {
			dupA, dupB = prev, addr
		} else {
			seen[id] = addr
		}
	}
	n1, err := NewNode(net, dupA, Config{Space: small, Mode: ModeCAMChord, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(net, dupB, Config{Space: small, Mode: ModeCAMChord, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	defer n2.Stop()
	if err := BulkInstall([]*Node{n1, n2}, BulkOptions{}); err == nil {
		t.Error("identifier collision accepted")
	}
}
