package runtime

import (
	"math/rand"
	"sort"
	"testing"

	"camcast/internal/ring"
	"camcast/internal/transport"
)

// convergenceCheckpoints picks the membership sizes at which the
// incremental CAM-Koorde ramp is probed, trimmed under -short and the race
// detector like equivSize.
func convergenceCheckpoints() []int {
	switch {
	case testing.Short():
		return []int{300, 600}
	case raceEnabled:
		return []int{500, 1000, 1500}
	default:
		return []int{2000, 5000, 10000}
	}
}

// TestKoordeIncrementalConvergence ramps one CAM-Koorde ring through the
// normal join path — oracle-picked bootstrap, one predecessor stabilize,
// per-join FixAll, exactly the construction TestBulkEquivalence's
// incremental arm uses — and probes lookups mid-ramp at each checkpoint:
// every probe must resolve to the oracle owner without exhausting the hop
// budget, and the probe set's p99 hop count must stay within the digit-
// routing bound even though older members' tables have gone stale as the
// ring grew around them. Before digit routing, greedy forwarding on koorde
// slots degraded to successor walks and this ramp died around ~1.4k.
func TestKoordeIncrementalConvergence(t *testing.T) {
	checkpoints := convergenceCheckpoints()
	size := checkpoints[len(checkpoints)-1]
	space := ring.MustSpace(32)
	members := equivMembers(space, ModeCAMKoorde, size, 11)
	rng := rand.New(rand.NewSource(13))
	mask := uint64(1)<<space.Bits() - 1

	net := transport.NewNetwork(3)
	inc := make(map[string]*Node, size)
	nodes := make([]*Node, 0, size)
	joinedIDs := make([]ring.ID, 0, size)
	joinedAddrs := make([]string, 0, size)
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// probe resolves random keys from random members against the sorted-
	// membership oracle and checks the hop distribution. The bound is
	// 2·log2(n) digit hops (capacity-4 members consume one bit per hop, and
	// a truncated cursor spends up to cursorMarginBits extra single-bit
	// hops) plus slack for delegations and the spent cursor's predecessor
	// walk across entries gone stale since their owner's last fix pass.
	// The tail is n-independent because the walk's length is set by slot
	// staleness (bounded by the fix rotation period), not by ring size.
	probe := func(n int) {
		const probes = 200
		hops := make([]int, 0, probes)
		for p := 0; p < probes; p++ {
			src := inc[joinedAddrs[rng.Intn(len(joinedAddrs))]]
			k := ring.ID(rng.Uint64() & mask)
			owner, h, err := src.FindSuccessor(k)
			if err != nil {
				t.Fatalf("at %d members: lookup %d from %s: %v", n, k, src.Self().Addr, err)
			}
			j := sort.Search(len(joinedIDs), func(i int) bool { return joinedIDs[i] >= k })
			if j == len(joinedIDs) {
				j = 0
			}
			if owner.ID != joinedIDs[j] {
				t.Fatalf("at %d members: lookup %d resolved to %d, oracle says %d", n, k, owner.ID, joinedIDs[j])
			}
			hops = append(hops, h)
		}
		sort.Ints(hops)
		p50 := hops[len(hops)/2]
		p99 := hops[len(hops)*99/100]
		logN := int(ring.Log2Floor(uint64(n))) + 1
		bound := 2*logN + cursorMarginBits + 16
		t.Logf("at %d members: lookup hops p50=%d p99=%d max=%d (bound %d)", n, p50, p99, hops[len(hops)-1], bound)
		if p99 > bound {
			t.Errorf("at %d members: lookup hops p99 = %d, want <= %d", n, p99, bound)
		}
	}

	next := 0
	refresh := 0
	for i, m := range members {
		n, err := NewNode(net, m.addr, Config{Space: space, Mode: ModeCAMKoorde, Capacity: m.cap})
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
			p := (j - 1 + len(joinedIDs)) % len(joinedIDs)
			inc[joinedAddrs[p]].StabilizeOnce()
			n.FixAll()
			// Rotating FixOnce cohort, standing in for the scheduler's
			// periodic fix maintenance (see TestBulkEquivalence). The cohort
			// scales with ring size — every live member refreshes on a fixed
			// interval, so the aggregate fix rate grows with n while the
			// join rate stays constant — keeping the rotation period (and so
			// each slot's staleness) bounded by a constant number of joins
			// instead of n/4.
			for r := 0; r < 4+len(nodes)/256; r++ {
				nodes[refresh%len(nodes)].FixOnce()
				refresh++
			}
		}
		j := sort.Search(len(joinedIDs), func(k int) bool { return joinedIDs[k] >= m.id })
		joinedIDs = append(joinedIDs, 0)
		copy(joinedIDs[j+1:], joinedIDs[j:])
		joinedIDs[j] = m.id
		joinedAddrs = append(joinedAddrs, "")
		copy(joinedAddrs[j+1:], joinedAddrs[j:])
		joinedAddrs[j] = m.addr

		if next < len(checkpoints) && i+1 == checkpoints[next] {
			probe(i + 1)
			next++
		}
	}
}
