package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"camcast/internal/camchord"
	"camcast/internal/camkoorde"
	"camcast/internal/multicast"
	"camcast/internal/ring"
	"camcast/internal/topology"
	"camcast/internal/transport"
)

// treeLog is a node transport that records the realised multicast tree:
// for every member, the member whose multicast or flood first delivered
// it the message (the call the receiver did not answer as a duplicate).
type treeLog struct {
	Transport
	mu       sync.Mutex
	parent   map[string]string // receiver -> sender
	children map[string]int    // sender -> receivers it delivered to
}

func (l *treeLog) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	resp, err := l.Transport.Call(ctx, from, to, kind, payload)
	if err != nil {
		return resp, err
	}
	mr, _ := resp.(multicastResp)
	fr, _ := resp.(floodResp)
	if (kind == kindMulticast && !mr.Duplicate) || (kind == kindFlood && !fr.Duplicate) {
		l.mu.Lock()
		if _, ok := l.parent[to]; !ok {
			l.parent[to] = from
			l.children[from]++
		}
		l.mu.Unlock()
	}
	return resp, err
}

// realisedTree is one multicast over a bulk-installed ring of size members
// of mode, next to the static tree the overlay package builds over the
// same identifiers and capacities from the same source.
type realisedTree struct {
	members []equivMember
	static  *multicast.Tree
	pos     map[string]int // address -> static ring position
	log     *treeLog
	hops    map[string]int // address -> Delivery.Hops
}

func runRealisedTree(t *testing.T, mode Mode, size int) *realisedTree {
	t.Helper()
	space := ring.MustSpace(32)
	rt := &realisedTree{
		members: equivMembers(space, mode, size, 7),
		log:     &treeLog{Transport: transport.NewNetwork(1), parent: map[string]string{}, children: map[string]int{}},
		hops:    make(map[string]int, size),
		pos:     make(map[string]int, size),
	}
	var mu sync.Mutex
	nodes := make([]*Node, 0, size)
	for _, m := range rt.members {
		addr := m.addr
		n, err := NewNode(rt.log, addr, Config{
			Space: space, Mode: mode, Capacity: m.cap,
			OnDeliver: func(d Delivery) {
				mu.Lock()
				if _, ok := rt.hops[addr]; ok {
					t.Errorf("%s delivered %s twice", addr, d.MsgID)
				}
				rt.hops[addr] = d.Hops
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	if err := BulkInstall(nodes, BulkOptions{}); err != nil {
		t.Fatal(err)
	}

	ids := make([]ring.ID, len(rt.members))
	for i, m := range rt.members {
		ids[i] = m.id
	}
	r, err := topology.New(space, ids)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int, r.Len())
	for _, m := range rt.members {
		p, _ := r.PosOf(m.id)
		caps[p] = m.cap
		rt.pos[m.addr] = p
	}
	src := rt.members[0]
	switch mode {
	case ModeCAMChord:
		net, err := camchord.New(r, caps)
		if err != nil {
			t.Fatal(err)
		}
		rt.static, err = net.BuildTree(rt.pos[src.addr])
		if err != nil {
			t.Fatal(err)
		}
	case ModeCAMKoorde:
		net, err := camkoorde.New(r, caps)
		if err != nil {
			t.Fatal(err)
		}
		rt.static, _, err = net.BuildTree(rt.pos[src.addr])
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, err := nodes[0].Multicast([]byte("tree")); err != nil {
		t.Fatal(err)
	}
	if len(rt.hops) != size {
		t.Fatalf("%d of %d members delivered", len(rt.hops), size)
	}
	return rt
}

// checkOutDegree asserts the paper's bound: no member forwards the message
// to more than c_x members.
func (rt *realisedTree) checkOutDegree(t *testing.T) {
	t.Helper()
	for _, m := range rt.members {
		if got := rt.log.children[m.addr]; got > m.cap {
			t.Errorf("%s (capacity %d) delivered to %d children", m.addr, m.cap, got)
		}
	}
}

// TestRealisedTreeMatchesStatic checks the live runtime against the
// simulator member by member: on a bulk-installed CAM-Chord ring every
// member's delivery depth and parent equal those of camchord.BuildTree
// over the same membership. CAM-Koorde's live flood is a race between
// concurrent offers, not the static breadth-first tree, so for it only the
// capacity bound is asserted and the divergence is logged.
func TestRealisedTreeMatchesStatic(t *testing.T) {
	sizes := []int{1000, 10000}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("%v/%d", ModeCAMChord, size), func(t *testing.T) {
			rt := runRealisedTree(t, ModeCAMChord, size)
			root := rt.static.Root()
			addrAt := make([]string, size)
			for addr, p := range rt.pos {
				addrAt[p] = addr
			}
			off := 0
			for _, m := range rt.members {
				p := rt.pos[m.addr]
				wantParent := ""
				if p != root {
					wantParent = addrAt[rt.static.Parent(p)]
				}
				if rt.hops[m.addr] != rt.static.Depth(p) || rt.log.parent[m.addr] != wantParent {
					off++
					if off <= 5 {
						t.Errorf("%s: live depth %d parent %q, static depth %d parent %q",
							m.addr, rt.hops[m.addr], rt.log.parent[m.addr], rt.static.Depth(p), wantParent)
					}
				}
			}
			if off > 0 {
				t.Errorf("%d of %d members off the static tree", off, size)
			}
			rt.checkOutDegree(t)
		})
	}
	t.Run(fmt.Sprintf("%v/%d", ModeCAMKoorde, 1000), func(t *testing.T) {
		rt := runRealisedTree(t, ModeCAMKoorde, 1000)
		off, live, static := 0, 0, 0
		for _, m := range rt.members {
			d := rt.static.Depth(rt.pos[m.addr])
			if rt.hops[m.addr] != d {
				off++
			}
			live += rt.hops[m.addr]
			static += d
		}
		t.Logf("%d members: %.3f off the static depth, live / static mean depth %.2f",
			len(rt.members), float64(off)/float64(len(rt.members)), float64(live)/float64(static))
		rt.checkOutDegree(t)
	})
}
