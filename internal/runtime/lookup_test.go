package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"camcast/internal/ids"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// recordingTransport records every find_successor request a node sends.
type recordingTransport struct {
	Transport

	mu   sync.Mutex
	sent []findSuccReq
}

func (r *recordingTransport) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	if req, ok := payload.(findSuccReq); ok {
		r.mu.Lock()
		r.sent = append(r.sent, req)
		r.mu.Unlock()
	}
	return r.Transport.Call(ctx, from, to, kind, payload)
}

// take returns the requests recorded since the last take.
func (r *recordingTransport) take() []findSuccReq {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return out
}

// TestCursorlessOnwardHopStaysGreedy pins digitRoute's cursorless branch:
// a request with no cursor and Hops > 0 is an onward hop of greedyRoute,
// which never sends a cursor, so a CAM-Koorde node must keep routing it
// greedily and forward it without one. A fresh entry-point request (Hops
// == 0) is the control: the same node starts a digit chain for it, so its
// onward requests carry a cursor the recorder can see.
func TestCursorlessOnwardHopStaysGreedy(t *testing.T) {
	c := newCluster(t, ModeCAMKoorde, 16)
	c.grow(16, 4)
	rec := &recordingTransport{Transport: c.net}
	probe, err := NewNode(rec, "probe", c.config(4))
	if err != nil {
		t.Fatal(err)
	}
	c.nodes["probe"] = probe
	if err := probe.Join("node-0"); err != nil {
		t.Fatal(err)
	}
	c.converge(3)

	far := probe.space.Add(probe.Self().ID, probe.space.Size()/2)
	rec.take() // the join's and maintenance's lookups
	if _, err := probe.handleFindSucc(findSuccReq{K: far, Hops: 1}); err != nil {
		t.Fatal(err)
	}
	onward := rec.take()
	if len(onward) == 0 {
		t.Fatal("the probe resolved the far key without forwarding; the check saw nothing")
	}
	for _, req := range onward {
		if req.HasCursor {
			t.Fatalf("cursorless onward hop forwarded with a cursor: %+v", req)
		}
	}

	if _, err := probe.handleFindSucc(findSuccReq{K: far}); err != nil {
		t.Fatal(err)
	}
	cursored := false
	for _, req := range rec.take() {
		cursored = cursored || req.HasCursor
	}
	if !cursored {
		t.Fatal("an entry-point request sent no cursor onward; the control did not engage digit routing")
	}
}

// koordeRing is a CAM-Koorde membership with its sorted-identifier oracle.
type koordeRing struct {
	net   *transport.Network
	rng   *rand.Rand // capacities of new members
	nodes []*Node
	byID  map[ring.ID]*Node
	ids   []ring.ID // sorted
}

// add registers n with the oracle.
func (r *koordeRing) add(n *Node) {
	r.nodes = append(r.nodes, n)
	r.byID[n.Self().ID] = n
	i, _ := slices.BinarySearch(r.ids, n.Self().ID)
	r.ids = slices.Insert(r.ids, i, n.Self().ID)
}

// owner is the member the sorted membership says owns k: the first
// identifier at or after k, wrapping past the origin.
func (r *koordeRing) owner(k ring.ID) *Node {
	i, _ := slices.BinarySearch(r.ids, k)
	return r.byID[r.ids[i%len(r.ids)]]
}

// newMember makes an unstarted CAM-Koorde node for the first address
// under prefix whose identifier is new to r and passes keep, with a
// capacity drawn from U[4,12].
func (r *koordeRing) newMember(t testing.TB, space ring.Space, prefix string, keep func(ring.ID) bool) *Node {
	h := ids.NewHasher(space)
	for i := len(r.nodes); ; i++ {
		addr := fmt.Sprintf("%s-%d", prefix, i)
		id := h.ID(addr)
		if _, dup := r.byID[id]; dup || !keep(id) {
			continue
		}
		n, err := NewNode(r.net, addr, Config{Space: space, Mode: ModeCAMKoorde, Capacity: 4 + r.rng.Intn(9)})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// bulkKoordeRing bulk-installs a CAM-Koorde ring of size members with
// seed-random addresses and capacities.
func bulkKoordeRing(t testing.TB, space ring.Space, size int, seed int64) *koordeRing {
	r := &koordeRing{
		net:  transport.NewNetwork(seed),
		rng:  rand.New(rand.NewSource(seed)),
		byID: make(map[ring.ID]*Node, size),
	}
	t.Cleanup(func() {
		for _, n := range r.nodes {
			n.Stop()
		}
	})
	prefix := fmt.Sprintf("r%d", seed)
	for len(r.nodes) < size {
		r.add(r.newMember(t, space, prefix, func(ring.ID) bool { return true }))
	}
	if err := BulkInstall(r.nodes, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestKoordeLookupHopBound is the digit-routing hop bound as a property of
// random memberships: on a converged ring every CAM-Koorde lookup reaches
// the sorted-membership owner within the source's injected cursor bits
// plus a constant. Each hop consumes at least one cursor bit, so the
// digit chain costs at most cursorBits hops, and the chain lands within a
// successor gap of the owner, which the predecessor walk or one greedy
// step closes. cursorBits is b - log2(gap) + cursorMarginBits, about
// log2(n) + 2, which is within 2·log2(n)/log2(k) + O(1) for the base-2
// digits even a capacity-4 member shifts.
func TestKoordeLookupHopBound(t *testing.T) {
	const slack = 3
	space := ring.MustSpace(32)
	sizes := []int{2, 3, 5, 17, 100}
	if !testing.Short() {
		sizes = append(sizes, 1000, 4000)
	}
	mask := uint64(1)<<space.Bits() - 1
	for _, size := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			r := bulkKoordeRing(t, space, size, seed)
			rng := rand.New(rand.NewSource(seed + 100))
			worst := 0
			for i := 0; i < 300; i++ {
				src := r.nodes[rng.Intn(size)]
				k := ring.ID(rng.Uint64() & mask)
				bits := int(src.cursorBits())
				got, h, err := src.FindSuccessor(k)
				if err != nil {
					t.Fatalf("n=%d seed %d: lookup %d from %s: %v", size, seed, k, src.Self().Addr, err)
				}
				if want := r.owner(k).Self(); got != want {
					t.Fatalf("n=%d seed %d: lookup %d resolved to %v, oracle says %v", size, seed, k, got, want)
				}
				if h > bits+slack {
					t.Errorf("n=%d seed %d: lookup %d from %s took %d hops, want <= cursorBits %d + %d", size, seed, k, src.Self().Addr, h, bits, slack)
				}
				worst = max(worst, h-bits)
			}
			t.Logf("n=%d seed %d: worst hops - cursorBits = %d", size, seed, worst)
		}
	}
}

// TestKoordeFlashCrowdLookups is the flash crowd the spent-cursor
// predecessor walk must absorb: 200 members join one 1/64 arc of a
// 2000-member ring, and only each joiner fixes its own table (plus its
// predecessor's stabilize), so every old member's slots into the arc still
// name the member that owned it before the crowd. A chain that resolves
// through such a slot lands past the crowd; the lookup must still reach
// the oracle owner inside the arc.
func TestKoordeFlashCrowdLookups(t *testing.T) {
	const (
		size    = 2000
		joiners = 200
		probes  = 300
	)
	space := ring.MustSpace(32)
	r := bulkKoordeRing(t, space, size, 7)
	old := slices.Clone(r.nodes)
	rng := rand.New(rand.NewSource(8))
	arcLen := space.Size() / 64
	arcStart := ring.ID(rng.Uint64() % space.Size())
	inArc := func(id ring.ID) bool { return space.Dist(arcStart, id) < arcLen }

	for i := 0; i < joiners; i++ {
		n := r.newMember(t, space, "crowd", inArc)
		if err := n.Join(r.owner(n.Self().ID).Self().Addr); err != nil {
			t.Fatalf("join %s: %v", n.Self().Addr, err)
		}
		r.add(n)
		j, _ := slices.BinarySearch(r.ids, n.Self().ID)
		r.byID[r.ids[(j-1+len(r.ids))%len(r.ids)]].StabilizeOnce()
		n.FixAll()
	}

	hops := make([]int, 0, probes)
	sum := 0
	for p := 0; p < probes; p++ {
		src := old[rng.Intn(len(old))]
		k := space.Add(arcStart, rng.Uint64()%arcLen)
		got, h, err := src.FindSuccessor(k)
		if err != nil {
			t.Fatalf("lookup %d from %s: %v", k, src.Self().Addr, err)
		}
		if want := r.owner(k).Self(); got != want {
			t.Fatalf("lookup %d from %s resolved to %v, oracle says %v", k, src.Self().Addr, got, want)
		}
		hops = append(hops, h)
		sum += h
	}
	sort.Ints(hops)
	t.Logf("%d joiners in a 1/64 arc of %d members: lookup hops mean %.1f p99 %d", joiners, size, float64(sum)/probes, hops[probes*99/100])
}
