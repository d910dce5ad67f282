package camchord

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"camcast/internal/ring"
	"camcast/internal/topology"
)

// paperRing builds the 8-node example network of Figure 2: identifier space
// [0..31], nodes at x, x+4, x+8, x+13, x+18, x+21, x+26, x+29 (x = 0), all
// with capacity 3.
func paperRing(t *testing.T) *Network {
	t.Helper()
	r, err := topology.New(ring.MustSpace(5), []ring.ID{0, 4, 8, 13, 18, 21, 26, 29})
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{3, 3, 3, 3, 3, 3, 3, 3}
	n, err := New(r, caps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomNetwork(t testing.TB, bits uint, nodes int, capLo, capHi int, seed int64) *Network {
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
	r, _ := topology.New(ring.MustSpace(5), []ring.ID{1, 2})
	if _, err := New(nil, nil); err == nil {
		t.Error("nil ring should fail")
	}
	if _, err := New(r, []int{3}); err == nil {
		t.Error("capacity count mismatch should fail")
	}
	if _, err := New(r, []int{3, 1}); err == nil {
		t.Error("capacity below minimum should fail")
	}
}

// TestNeighborIDsPaperExample checks Section 3.1's example: N = [0..31],
// c_x = 3 gives neighbor identifiers x+1, x+2 (level 0), x+3, x+6 (level 1),
// x+9, x+18 (level 2), x+27 (level 3; x+2*27 wraps past N and is excluded).
func TestNeighborIDsPaperExample(t *testing.T) {
	n := paperRing(t)
	pos, ok := n.Ring().PosOf(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	got := n.NeighborIDs(pos)
	want := []ring.ID{1, 2, 3, 6, 9, 18, 27}
	if len(got) != len(want) {
		t.Fatalf("NeighborIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NeighborIDs = %v, want %v", got, want)
		}
	}
}

// TestNeighborResolutionPaperExample checks the resolved neighbor nodes of
// Figure 2: x̂0,1 = x̂0,2 = x̂1,1 = x+4, x̂1,2 = x+8, x̂2,1 = x+13,
// x̂2,2 = x+18, x̂3,1 = x+29.
func TestNeighborResolutionPaperExample(t *testing.T) {
	n := paperRing(t)
	r := n.Ring()
	tests := []struct {
		id   ring.ID
		want ring.ID
	}{
		{1, 4}, {2, 4}, {3, 4}, {6, 8}, {9, 13}, {18, 18}, {27, 29},
	}
	for _, tt := range tests {
		if got := r.IDAt(r.Responsible(tt.id)); got != tt.want {
			t.Errorf("responsible(%d) = %d, want %d", tt.id, got, tt.want)
		}
	}

	pos, _ := r.PosOf(0)
	nodes := n.NeighborNodes(pos)
	wantNodes := map[ring.ID]bool{4: true, 8: true, 13: true, 18: true, 29: true}
	if len(nodes) != len(wantNodes) {
		t.Fatalf("NeighborNodes resolved to %d distinct nodes, want %d", len(nodes), len(wantNodes))
	}
	for _, p := range nodes {
		if !wantNodes[r.IDAt(p)] {
			t.Errorf("unexpected neighbor node %d", r.IDAt(p))
		}
	}
}

// TestLookupPaperExample follows Section 3.2: from x = 0, LOOKUP(25) routes
// via node 18 and returns node 26.
func TestLookupPaperExample(t *testing.T) {
	n := paperRing(t)
	r := n.Ring()
	from, _ := r.PosOf(0)
	resp, path := n.Lookup(from, 25)
	if got := r.IDAt(resp); got != 26 {
		t.Fatalf("Lookup(25) returned node %d, want 26", got)
	}
	if len(path) != 2 || r.IDAt(path[0]) != 0 || r.IDAt(path[1]) != 18 {
		ids := make([]ring.ID, len(path))
		for i, p := range path {
			ids[i] = r.IDAt(p)
		}
		t.Fatalf("Lookup path = %v, want [0 18]", ids)
	}
}

func TestLookupSelfAndSuccessor(t *testing.T) {
	n := paperRing(t)
	r := n.Ring()
	from, _ := r.PosOf(0)
	// Identifier 0 is node 0 itself.
	if resp, _ := n.Lookup(from, 0); r.IDAt(resp) != 0 {
		t.Error("Lookup(own id) should return self")
	}
	// Identifiers (0,4] belong to the successor.
	if resp, _ := n.Lookup(from, 3); r.IDAt(resp) != 4 {
		t.Error("Lookup(3) should return successor 4")
	}
	if resp, _ := n.Lookup(from, 4); r.IDAt(resp) != 4 {
		t.Error("Lookup(4) should return node 4")
	}
}

func TestLookupMatchesResponsibleEverywhere(t *testing.T) {
	n := randomNetwork(t, 12, 150, 2, 12, 1)
	r := n.Ring()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3000; trial++ {
		from := rng.Intn(r.Len())
		k := r.Space().Reduce(rng.Uint64())
		want := r.Responsible(k)
		got, path := n.Lookup(from, k)
		if got != want {
			t.Fatalf("Lookup(from=%d, k=%d) = node %d, want %d", from, k, r.IDAt(got), r.IDAt(want))
		}
		if len(path) > r.Len() {
			t.Fatalf("path length %d exceeds node count", len(path))
		}
	}
}

// TestLookupSparseRingNoLoop regression-tests the greedy-overshoot case the
// paper's pseudo-code does not handle: very sparse rings where the greedy
// neighbor wraps past the target.
func TestLookupSparseRingNoLoop(t *testing.T) {
	r, err := topology.New(ring.MustSpace(5), []ring.ID{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(r, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	from, _ := r.PosOf(0)
	resp, _ := n.Lookup(from, 20) // responsible(20) wraps to node 0
	if got := r.IDAt(resp); got != 0 {
		t.Fatalf("Lookup(20) = node %d, want 0", got)
	}
}

// TestBuildTreePaperExample reproduces Figure 3 exactly: the implicit tree
// rooted at x has children x+29 (segment (x+29, x+31]), x+18 (segment
// (x+18, x+26]) and x+4 (segment (x+4, x+17]); node x+18 forwards to x+21
// and x+26; node x+4 forwards to x+8 and x+13.
func TestBuildTreePaperExample(t *testing.T) {
	n := paperRing(t)
	r := n.Ring()
	src, _ := r.PosOf(0)
	tree, err := n.BuildTree(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.VerifyComplete(); err != nil {
		t.Fatal(err)
	}

	childIDs := func(id ring.ID) map[ring.ID]bool {
		pos, _ := r.PosOf(id)
		out := map[ring.ID]bool{}
		for _, c := range tree.Children(pos) {
			out[r.IDAt(c)] = true
		}
		return out
	}

	wantRoot := map[ring.ID]bool{29: true, 18: true, 4: true}
	if got := childIDs(0); len(got) != 3 || !got[29] || !got[18] || !got[4] {
		t.Fatalf("children of x = %v, want %v", got, wantRoot)
	}
	if got := childIDs(18); len(got) != 2 || !got[21] || !got[26] {
		t.Fatalf("children of x+18 = %v, want {21,26}", got)
	}
	if got := childIDs(4); len(got) != 2 || !got[8] || !got[13] {
		t.Fatalf("children of x+4 = %v, want {8,13}", got)
	}
	if tree.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d, want 2", tree.MaxDepth())
	}
}

func TestBuildTreeExactlyOnceRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		n := randomNetwork(t, 14, 400, 2, 10, seed)
		src := int(seed) % n.Ring().Len()
		tree, err := n.BuildTree(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tree.VerifyComplete(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBuildTreeDegreeBound(t *testing.T) {
	n := randomNetwork(t, 14, 600, 2, 15, 9)
	tree, err := n.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < n.Ring().Len(); pos++ {
		if d := tree.Degree(pos); d > n.Capacity(pos) {
			t.Fatalf("node %d has %d children, capacity %d", pos, d, n.Capacity(pos))
		}
	}
}

// Internal nodes away from the tree bottom should use their full capacity
// (Section 3.4: "the number of children for an internal node is always equal
// to the node's capacity as long as the node is not at the bottom levels").
func TestBuildTreeCapacitySaturation(t *testing.T) {
	n := randomNetwork(t, 17, 3000, 4, 4, 3)
	tree, err := n.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes within the top half of the tree must be saturated.
	cut := tree.MaxDepth() / 2
	saturated, shallow := 0, 0
	for pos := 0; pos < n.Ring().Len(); pos++ {
		if tree.Depth(pos) < cut && tree.Degree(pos) > 0 {
			shallow++
			if tree.Degree(pos) == n.Capacity(pos) {
				saturated++
			}
		}
	}
	if shallow == 0 {
		t.Fatal("no shallow internal nodes found")
	}
	if frac := float64(saturated) / float64(shallow); frac < 0.9 {
		t.Errorf("only %.0f%% of shallow internal nodes saturated their capacity", frac*100)
	}
}

// Path lengths should scale like log n / log c (Theorem 4).
func TestBuildTreePathLengthScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	const nodes = 4000
	for _, c := range []int{4, 8, 16} {
		n := randomNetwork(t, 19, nodes, c, c, 11)
		tree, err := n.BuildTree(0)
		if err != nil {
			t.Fatal(err)
		}
		bound := 1.5 * math.Log(nodes) / math.Log(float64(c))
		if got := tree.AvgPathLength(); got > bound {
			t.Errorf("c=%d: avg path length %.2f exceeds 1.5·ln(n)/ln(c) = %.2f", c, got, bound)
		}
	}
}

func TestBuildTreeSingleNode(t *testing.T) {
	r, _ := topology.New(ring.MustSpace(5), []ring.ID{7})
	n, err := New(r, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := n.BuildTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.VerifyComplete(); err != nil {
		t.Fatal(err)
	}
	if tree.Reached() != 1 {
		t.Fatal("single-node group should reach only itself")
	}
}

func TestBuildTreeTwoNodes(t *testing.T) {
	r, _ := topology.New(ring.MustSpace(5), []ring.ID{3, 20})
	n, err := New(r, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 2; src++ {
		tree, err := n.BuildTree(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.VerifyComplete(); err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
	}
}

func TestBuildTreeEverySource(t *testing.T) {
	n := randomNetwork(t, 12, 120, 2, 8, 4)
	for src := 0; src < n.Ring().Len(); src++ {
		tree, err := n.BuildTree(src)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if err := tree.VerifyComplete(); err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
	}
}

func TestCapacityAccessor(t *testing.T) {
	n := paperRing(t)
	if n.Capacity(0) != 3 {
		t.Errorf("Capacity(0) = %d", n.Capacity(0))
	}
}

// TestAppendNeighborNodesMatchesNeighborIDs cross-checks the on-the-fly
// enumeration in AppendNeighborNodes against the reference NeighborIDs +
// Responsible resolution, including first-seen order.
func TestAppendNeighborNodesMatchesNeighborIDs(t *testing.T) {
	n := randomNetwork(t, 14, 200, 2, 9, 11)
	var buf []int
	for pos := 0; pos < n.Ring().Len(); pos++ {
		var want []int
		seen := make(map[int]bool)
		for _, id := range n.NeighborIDs(pos) {
			p := n.Ring().Responsible(id)
			if p == pos || seen[p] {
				continue
			}
			seen[p] = true
			want = append(want, p)
		}
		buf = n.AppendNeighborNodes(buf[:0], pos)
		if !slices.Equal(buf, want) {
			t.Fatalf("pos %d: AppendNeighborNodes = %v, want %v", pos, buf, want)
		}
		if got := n.NeighborNodes(pos); !slices.Equal(got, want) {
			t.Fatalf("pos %d: NeighborNodes = %v, want %v", pos, got, want)
		}
	}
}

// TestAppendNeighborNodesAllocFree gates the perf fix: with a reused dst
// buffer and a warmed scratch pool, neighbor resolution must not allocate
// (the former implementation built a map[int]bool per call).
func TestAppendNeighborNodesAllocFree(t *testing.T) {
	n := randomNetwork(t, 14, 200, 2, 9, 12)
	buf := make([]int, 0, 64)
	pos := 0
	n.AppendNeighborNodes(buf, pos) // warm the scratch pool
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

// TestSlotIndexMatchesLadder: Slot.Index is the closed form of the slot's
// position in the ladder Slots enumerates, including a partial last level,
// and every child Plan names a slot with its ladder offset.
func TestSlotIndexMatchesLadder(t *testing.T) {
	for _, bits := range []uint{6, 12, 32} {
		s := ring.MustSpace(bits)
		for c := 2; c <= 40; c++ {
			var ladder []Slot
			Slots(s, c, func(sl Slot) {
				if got := sl.Index(c); got != len(ladder) {
					t.Fatalf("bits %d c %d: slot %+v has Index %d, enumerated at %d", bits, c, sl, got, len(ladder))
				}
				ladder = append(ladder, sl)
			})
			x := s.Reduce(0x9e3779b97f4a7c15)
			for _, k := range []ring.ID{s.Sub(x, 1), s.Add(x, 7), s.Add(x, s.Size()/3)} {
				Plan(s, x, k, c, SpacingEven, func(ch Child) {
					if ch.Succ {
						return
					}
					if i := ch.Slot.Index(c); i >= len(ladder) || ladder[i] != ch.Slot || ch.Slot.ID(s, x) != ch.Y {
						t.Fatalf("bits %d c %d: child %+v names no ladder slot", bits, c, ch)
					}
				})
			}
		}
	}
}

// TestPlanAllocFree gates the segment planner the live runtime calls once
// per spread: planning into a caller-owned buffer allocates nothing.
func TestPlanAllocFree(t *testing.T) {
	n := randomNetwork(t, 32, 200, 2, 33, 12)
	s := n.Ring().Space()
	buf := make([]Child, 0, 64)
	pos := 0
	avg := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		x := n.Ring().IDAt(pos)
		Plan(s, x, s.Sub(x, 1), n.Capacity(pos), SpacingEven, func(ch Child) { buf = append(buf, ch) })
		pos = (pos + 1) % n.Ring().Len()
	})
	if raceEnabled {
		t.Skipf("race instrumentation allocates (%.1f per call); the gate runs without -race", avg)
	}
	if avg > 0 {
		t.Fatalf("Plan allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkNeighborNodes measures neighbor resolution as the experiment
// engine's lookup sweeps drive it: every position in turn, one reused
// buffer.
func BenchmarkNeighborNodes(b *testing.B) {
	n := randomNetwork(b, 16, 1000, 2, 9, 13)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = n.AppendNeighborNodes(buf[:0], i%n.Ring().Len())
	}
}
