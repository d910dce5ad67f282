package runtime

import (
	"fmt"
	"sync"
	"testing"

	"camcast/internal/ring"
	"camcast/internal/transport"
)

func TestArenaInternResolveRelease(t *testing.T) {
	a := NewNodeArena()
	x := NodeInfo{Addr: "x", ID: 1}
	y := NodeInfo{Addr: "y", ID: 2}

	rx := a.Intern(x)
	ry := a.Intern(y)
	if rx == ry {
		t.Fatalf("distinct entries share ref %d", rx)
	}
	if got := a.Resolve(rx); got != x {
		t.Fatalf("Resolve(rx) = %+v, want %+v", got, x)
	}
	if got := a.Resolve(ry); got != y {
		t.Fatalf("Resolve(ry) = %+v, want %+v", got, y)
	}

	// Interning the same address again dedups to the same slot.
	if rx2 := a.Intern(x); rx2 != rx {
		t.Fatalf("re-intern of %q moved %d -> %d", x.Addr, rx, rx2)
	}
	st := a.Stats()
	if st.Slots != 2 || st.Live != 2 {
		t.Fatalf("stats after 2 entries: %+v", st)
	}

	// The zero NodeInfo threads through as noRef.
	if ref := a.Intern(NodeInfo{}); ref != noRef {
		t.Fatalf("Intern(zero) = %d, want noRef", ref)
	}
	if got := a.Resolve(noRef); !got.zero() {
		t.Fatalf("Resolve(noRef) = %+v, want zero", got)
	}
	a.Release(noRef) // no-op

	// One release keeps x alive (two holders), the second frees it.
	a.Release(rx)
	if got := a.Resolve(rx); got != x {
		t.Fatalf("entry freed while still held: %+v", got)
	}
	a.Release(rx)
	if got := a.Resolve(rx); !got.zero() {
		t.Fatalf("freed slot not cleared: %+v", got)
	}
	if st := a.Stats(); st.Live != 1 || st.Free != 1 {
		t.Fatalf("stats after free: %+v", st)
	}
}

// TestArenaIndexStabilityAcrossRejoin: an entry's reference (and generation)
// is stable for as long as anyone holds it — a member leaving and rejoining
// elsewhere in the overlay does not disturb the slots of neighbors whose
// tables did not change.
func TestArenaIndexStabilityAcrossRejoin(t *testing.T) {
	a := NewNodeArena()
	stable := a.Intern(NodeInfo{Addr: "stable", ID: 10})
	gen := a.Gen(stable)

	// Churn other entries through the arena: join, leave, rejoin.
	for i := 0; i < 100; i++ {
		info := NodeInfo{Addr: fmt.Sprintf("churner-%d", i%7), ID: ring.ID(100 + i%7)}
		ref := a.Intern(info)
		if a.Resolve(ref) != info {
			t.Fatalf("iteration %d: wrong entry", i)
		}
		a.Release(ref)
	}

	if a.Resolve(stable).Addr != "stable" {
		t.Fatal("held entry moved under churn")
	}
	if g := a.Gen(stable); g != gen {
		t.Fatalf("held entry's generation moved %d -> %d", gen, g)
	}

	// A leave/rejoin of the held member itself keeps the slot too (the
	// rejoin interns before the old holder releases, as table updates do).
	again := a.Intern(NodeInfo{Addr: "stable", ID: 10})
	a.Release(stable)
	if again != stable {
		t.Fatalf("intern-before-release moved the slot %d -> %d", stable, again)
	}
	if g := a.Gen(again); g != gen {
		t.Fatalf("generation bumped without the slot freeing: %d -> %d", gen, g)
	}
	a.Release(again)
}

// TestArenaGenerationReuseUnderChurn: a freed slot is recycled for the next
// intern with a bumped generation, so stale references are detectable and
// the arena's footprint stays bounded under leave/rejoin churn.
func TestArenaGenerationReuseUnderChurn(t *testing.T) {
	a := NewNodeArena()
	ref := a.Intern(NodeInfo{Addr: "old", ID: 1})
	gen := a.Gen(ref)
	a.Release(ref)

	ref2 := a.Intern(NodeInfo{Addr: "new", ID: 2})
	if ref2 != ref {
		t.Fatalf("free slot not recycled: got %d, want %d", ref2, ref)
	}
	if g := a.Gen(ref2); g != gen+1 {
		t.Fatalf("recycled generation = %d, want %d", g, gen+1)
	}
	if st := a.Stats(); st.Reused != 1 {
		t.Fatalf("reused = %d, want 1", st.Reused)
	}

	// Sustained churn never grows the slot count past the live set.
	for i := 0; i < 10*arenaSlabSize; i++ {
		r := a.Intern(NodeInfo{Addr: fmt.Sprintf("c-%d", i), ID: ring.ID(i)})
		a.Release(r)
	}
	if st := a.Stats(); st.Slots > 2 {
		t.Fatalf("arena grew to %d slots under balanced churn", st.Slots)
	}
}

func TestArenaDeadRefPanics(t *testing.T) {
	a := NewNodeArena()
	ref := a.Intern(NodeInfo{Addr: "x", ID: 1})
	a.Release(ref)
	for name, f := range map[string]func(){
		"release": func() { a.Release(ref) },
		"retain":  func() { a.Retain(ref) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a dead ref did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestArenaConcurrentReadsDuringBulkInstall: shard-local readers (Resolve
// via the public accessors and via resolvePlan, which a spread runs before
// its fan-out) race a parallel BulkInstall over a shared arena. Run under
// -race this is the memory-ordering check for the lock-free Resolve path.
func TestArenaConcurrentReadsDuringBulkInstall(t *testing.T) {
	space, err := ring.NewSpace(32)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(1)
	arena := NewNodeArena()
	members := 256
	if testing.Short() {
		members = 64
	}
	nodes := make([]*Node, members)
	for i := range nodes {
		n, err := NewNode(net, fmt.Sprintf("m-%d", i), Config{
			Space: space, Mode: ModeCAMChord, Capacity: 4, Arena: arena,
		})
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

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := nodes[r*31%len(nodes)]
				n.SuccessorList()
				n.Predecessor()
				n.tableSnapshot()
				n.resolvePlan(n.planSegments(n.space.Sub(n.self.ID, 1), nil))
			}
		}(r)
	}

	if err := BulkInstall(nodes, BulkOptions{Parallelism: 8}); err != nil {
		close(stop)
		readers.Wait()
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()

	for _, n := range nodes {
		succs := n.SuccessorList()
		if len(succs) == 0 {
			t.Fatalf("%s has no successors after bulk install", n.Self().Addr)
		}
	}
	if st := arena.Stats(); st.Live != members {
		t.Fatalf("arena live = %d, want %d distinct members", st.Live, members)
	}
}
