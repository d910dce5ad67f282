package camkoorde

import (
	"math/rand"
	"sort"
	"testing"

	"camcast/internal/ring"
	"camcast/internal/topology"
)

// figure4Nodes is the CAM-Koorde example topology of Figure 4: identifier
// space [0..63].
var figure4Nodes = []ring.ID{1, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61}

func paperNetwork(t testing.TB) *Network {
	t.Helper()
	r, err := topology.New(ring.MustSpace(6), figure4Nodes)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int, r.Len())
	for i := range caps {
		caps[i] = 10 // "For simplicity, assume the node capacities are all 10."
	}
	n, err := New(r, caps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomNetwork(t testing.TB, bits uint, nodes, capLo, capHi int, seed int64) *Network {
	t.Helper()
	s := ring.MustSpace(bits)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[ring.ID]bool, nodes)
	ids := make([]ring.ID, 0, nodes)
	for len(ids) < nodes {
		id := s.Reduce(rng.Uint64())
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	r, err := topology.New(s, ids)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int, nodes)
	for i := range caps {
		caps[i] = capLo + rng.Intn(capHi-capLo+1)
	}
	n, err := New(r, caps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	r, _ := topology.New(ring.MustSpace(6), []ring.ID{1, 2})
	if _, err := New(nil, nil); err == nil {
		t.Error("nil ring should fail")
	}
	if _, err := New(r, []int{4}); err == nil {
		t.Error("capacity count mismatch should fail")
	}
	if _, err := New(r, []int{4, 3}); err == nil {
		t.Error("capacity below 4 should fail")
	}
}

// TestGroupsPaperExample checks the three neighbor groups of node 36
// (100100, capacity 10) against Section 4.1's worked example.
func TestGroupsPaperExample(t *testing.T) {
	n := paperNetwork(t)
	pos, ok := n.Ring().PosOf(36)
	if !ok {
		t.Fatal("node 36 missing")
	}
	basic, second, third := n.Groups(pos)

	wantBasic := []ring.ID{35, 37, 18, 50}
	if len(basic) != 4 {
		t.Fatalf("basic group %v", basic)
	}
	for i, w := range wantBasic {
		if basic[i] != w {
			t.Fatalf("basic group %v, want %v", basic, wantBasic)
		}
	}

	wantSecond := []ring.ID{9, 25, 41, 57}
	if len(second) != 4 {
		t.Fatalf("second group %v, want %v", second, wantSecond)
	}
	sort.Slice(second, func(i, j int) bool { return second[i] < second[j] })
	for i, w := range wantSecond {
		if second[i] != w {
			t.Fatalf("second group %v, want %v", second, wantSecond)
		}
	}

	wantThird := []ring.ID{4, 12}
	if len(third) != 2 {
		t.Fatalf("third group %v, want %v", third, wantThird)
	}
	sort.Slice(third, func(i, j int) bool { return third[i] < third[j] })
	for i, w := range wantThird {
		if third[i] != w {
			t.Fatalf("third group %v, want %v", third, wantThird)
		}
	}
}

// Capacity exactly 4 yields only the basic group; 5..7 add third-group
// neighbors only (s <= 1 means t = 0); 8 adds a full second group.
func TestGroupSizesByCapacity(t *testing.T) {
	s := ring.MustSpace(10)
	rng := rand.New(rand.NewSource(1))
	ids := make([]ring.ID, 0, 64)
	seen := map[ring.ID]bool{}
	for len(ids) < 64 {
		id := s.Reduce(rng.Uint64())
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	r, _ := topology.New(s, ids)

	tests := []struct {
		capacity   int
		wantSecond int
		wantThird  int
	}{
		{4, 0, 0},
		{5, 0, 1},
		{6, 0, 2},
		{7, 0, 3},
		{8, 4, 0},
		{9, 4, 1},
		{10, 4, 2},
		{12, 8, 0},
		{20, 16, 0},
		{21, 16, 1},
	}
	for _, tt := range tests {
		caps := make([]int, r.Len())
		for i := range caps {
			caps[i] = tt.capacity
		}
		n, err := New(r, caps)
		if err != nil {
			t.Fatal(err)
		}
		_, second, third := n.Groups(0)
		if len(second) != tt.wantSecond || len(third) != tt.wantThird {
			t.Errorf("capacity %d: groups sized (%d,%d), want (%d,%d)",
				tt.capacity, len(second), len(third), tt.wantSecond, tt.wantThird)
		}
		// Total identifier count never exceeds the capacity.
		if got := 4 + len(second) + len(third); got > tt.capacity {
			t.Errorf("capacity %d: %d neighbor identifiers exceed capacity", tt.capacity, got)
		}
	}
}

func TestNeighborNodesDistinctAndBounded(t *testing.T) {
	n := randomNetwork(t, 14, 300, 4, 20, 2)
	for pos := 0; pos < n.Ring().Len(); pos++ {
		nodes := n.NeighborNodes(pos)
		if len(nodes) > n.Capacity(pos) {
			t.Fatalf("node %d has %d neighbors, capacity %d", pos, len(nodes), n.Capacity(pos))
		}
		seen := map[int]bool{}
		for _, p := range nodes {
			if p == pos {
				t.Fatalf("node %d lists itself as neighbor", pos)
			}
			if seen[p] {
				t.Fatalf("node %d lists neighbor %d twice", pos, p)
			}
			seen[p] = true
		}
	}
}

// Neighbors should spread across the ring (the point of right-shifting):
// for a node with a large capacity, neighbor identifiers should cover many
// distinct quarters of the identifier space.
func TestNeighborSpread(t *testing.T) {
	n := randomNetwork(t, 16, 500, 32, 32, 3)
	s := n.Ring().Space()
	quarter := s.Size() / 4
	spread := 0
	for pos := 0; pos < 50; pos++ {
		_, second, _ := n.Groups(pos)
		quarters := map[uint64]bool{}
		for _, id := range second {
			quarters[id/quarter] = true
		}
		if len(quarters) == 4 {
			spread++
		}
	}
	if spread < 45 {
		t.Errorf("second-group neighbors covered all quarters for only %d/50 nodes", spread)
	}
}

func TestLookupPaperTopology(t *testing.T) {
	n := paperNetwork(t)
	r := n.Ring()
	for from := 0; from < r.Len(); from++ {
		for k := ring.ID(0); k < 64; k++ {
			want := r.Responsible(k)
			got, path := n.Lookup(from, k)
			if got != want {
				t.Fatalf("Lookup(from=%d, k=%d) = node %d, want %d (path %v)",
					r.IDAt(from), k, r.IDAt(got), r.IDAt(want), path)
			}
		}
	}
}

func TestLookupMatchesResponsibleRandom(t *testing.T) {
	n := randomNetwork(t, 13, 200, 4, 12, 4)
	r := n.Ring()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		from := rng.Intn(r.Len())
		k := r.Space().Reduce(rng.Uint64())
		want := r.Responsible(k)
		got, _ := n.Lookup(from, k)
		if got != want {
			t.Fatalf("Lookup(from=%d, k=%d) = node %d, want node %d",
				r.IDAt(from), k, r.IDAt(got), r.IDAt(want))
		}
	}
}

func TestLookupSingleAndTwoNodes(t *testing.T) {
	s := ring.MustSpace(6)
	r1, _ := topology.New(s, []ring.ID{9})
	n1, err := New(r1, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := n1.Lookup(0, 40); resp != 0 {
		t.Error("single-node lookup should return the node itself")
	}

	r2, _ := topology.New(s, []ring.ID{9, 40})
	n2, err := New(r2, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 2; from++ {
		for _, k := range []ring.ID{0, 9, 10, 40, 41, 63} {
			want := r2.Responsible(k)
			if got, _ := n2.Lookup(from, k); got != want {
				t.Fatalf("two-node Lookup(from=%d,k=%d) = %d, want %d", from, k, got, want)
			}
		}
	}
}

// TestBuildTreePaperExample reproduces the Figure 5 multicast: node 36
// forwards to all ten of its neighbors (9, 12, 18, 25, 35, 37, 41, 50, 57
// and 4), and every remaining member receives the message within one more
// hop.
func TestBuildTreePaperExample(t *testing.T) {
	n := paperNetwork(t)
	r := n.Ring()
	src, _ := r.PosOf(36)
	tree, _, err := n.BuildTree(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.VerifyComplete(); err != nil {
		t.Fatal(err)
	}

	want := map[ring.ID]bool{9: true, 12: true, 18: true, 25: true, 35: true,
		37: true, 41: true, 50: true, 57: true, 4: true}
	kids := tree.Children(src)
	if len(kids) != len(want) {
		t.Fatalf("root has %d children, want %d", len(kids), len(want))
	}
	for _, c := range kids {
		if !want[r.IDAt(c)] {
			t.Errorf("unexpected root child %d", r.IDAt(c))
		}
	}
	if tree.MaxDepth() != 2 {
		t.Errorf("MaxDepth = %d, want 2", tree.MaxDepth())
	}
}

func TestBuildTreeExactlyOnceRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := randomNetwork(t, 14, 400, 4, 12, seed)
		src := int(seed) % n.Ring().Len()
		tree, _, err := n.BuildTree(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tree.VerifyComplete(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBuildTreeDegreeBound(t *testing.T) {
	n := randomNetwork(t, 14, 600, 4, 15, 9)
	tree, _, err := n.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < n.Ring().Len(); pos++ {
		if d := tree.Degree(pos); d > n.Capacity(pos) {
			t.Fatalf("node %d has %d children, capacity %d", pos, d, n.Capacity(pos))
		}
	}
}

func TestBuildTreeEverySource(t *testing.T) {
	n := randomNetwork(t, 12, 120, 4, 8, 6)
	for src := 0; src < n.Ring().Len(); src++ {
		tree, _, err := n.BuildTree(src)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if err := tree.VerifyComplete(); err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
	}
}

func TestBuildTreeReportsRedundantOffers(t *testing.T) {
	n := paperNetwork(t)
	_, redundant, err := n.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if redundant == 0 {
		t.Error("flooding over a dense digraph should suppress some duplicate offers")
	}
}

// TestSlotIndexRoundTrip: SlotAt and Slot.Index are inverse closed forms
// over the slot list, whose groups come in basic, second, third order with
// the sizes GroupSizes gives, and every slot NextShift picks is in it.
func TestSlotIndexRoundTrip(t *testing.T) {
	for c := MinCapacity; c <= 80; c++ {
		shift, tt, tPrime := GroupSizes(c)
		count := [3]int{}
		for i := 0; i < SlotCount(c); i++ {
			sl := SlotAt(c, i)
			if got := sl.Index(c); got != i {
				t.Fatalf("c %d: SlotAt(%d) = %+v has Index %d", c, i, sl, got)
			}
			count[sl.Group]++
		}
		if count != [3]int{2, tt, tPrime} || tt+tPrime != c-4 || (tt > 0 && tt != 1<<shift) {
			t.Fatalf("c %d: group sizes %v, GroupSizes %d %d %d", c, count, shift, tt, tPrime)
		}
		for k := ring.ID(0); k < 64; k++ {
			for injected := uint(0); injected < 6; injected++ {
				sl := NextShift(c, k, injected, 6)
				if i := sl.Index(c); i >= SlotCount(c) || SlotAt(c, i) != sl {
					t.Fatalf("c %d: NextShift picked %+v, not in the slot list", c, sl)
				}
			}
		}
	}
}

// TestAppendNeighborNodesAllocFree: with a reused dst buffer, neighbour
// resolution allocates nothing, so a flood reuses one buffer throughout.
func TestAppendNeighborNodesAllocFree(t *testing.T) {
	n := randomNetwork(t, 14, 200, 4, 32, 12)
	buf := make([]int, 0, 64)
	pos := 0
	avg := testing.AllocsPerRun(100, func() {
		buf = n.AppendNeighborNodes(buf[:0], pos)
		pos = (pos + 1) % n.Ring().Len()
	})
	if raceEnabled {
		t.Skipf("race instrumentation allocates (%.1f per call); the gate runs without -race", avg)
	}
	if avg > 0 {
		t.Fatalf("AppendNeighborNodes allocates %.1f times per call, want 0", avg)
	}
}
