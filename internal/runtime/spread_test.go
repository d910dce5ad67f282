package runtime

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// loggedCall is one RPC a node issued; dup records a flood the receiver
// answered as a duplicate.
type loggedCall struct {
	from, to, kind string
	dup            bool
}

// callLog is a node transport that records every call it carries.
type callLog struct {
	Transport
	mu    sync.Mutex
	calls []loggedCall
}

func (l *callLog) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	resp, err := l.Transport.Call(ctx, from, to, kind, payload)
	fr, _ := resp.(floodResp)
	l.mu.Lock()
	l.calls = append(l.calls, loggedCall{from: from, to: to, kind: kind, dup: fr.Duplicate})
	l.mu.Unlock()
	return resp, err
}

// take returns the calls recorded since the last take.
func (l *callLog) take() []loggedCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// exactRing is a bulk-installed ring whose routing state is the exact
// fixed point, with every call logged and every delivery counted.
type exactRing struct {
	log    *callLog
	reg    *obsv.Registry
	nodes  []*Node // in ring-identifier order
	space  ring.Space
	mu     sync.Mutex
	copies map[string]int // addr + " " + msgID -> deliveries
}

// newExactRing builds size members of mode with the seeded mixed
// capacities of equivMembers; forwardParallel is Config.ForwardParallel.
func newExactRing(t *testing.T, mode Mode, size int, forwardParallel int) *exactRing {
	t.Helper()
	space := ring.MustSpace(32)
	r := &exactRing{
		log:    &callLog{Transport: transport.NewNetwork(1)},
		reg:    obsv.NewRegistry(),
		space:  space,
		copies: make(map[string]int),
	}
	for _, m := range equivMembers(space, mode, size, 7) {
		addr := m.addr
		n, err := NewNode(r.log, addr, Config{
			Space: space, Mode: mode, Capacity: m.cap,
			ForwardParallel: forwardParallel, Metrics: r.reg,
			OnDeliver: func(d Delivery) {
				r.mu.Lock()
				r.copies[addr+" "+d.MsgID]++
				r.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range r.nodes {
			n.Stop()
		}
	})
	if err := BulkInstall(r.nodes, BulkOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].Self().ID < r.nodes[j].Self().ID })
	return r
}

// at returns the member i places after nodes[x] on the ring.
func (r *exactRing) at(x, i int) *Node { return r.nodes[(x+i)%len(r.nodes)] }

func (r *exactRing) deliveries(n *Node, msgID string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copies[n.Self().Addr+" "+msgID]
}

// checkExactlyOnce asserts every live member received msgID once.
func (r *exactRing) checkExactlyOnce(t *testing.T, msgID string) {
	t.Helper()
	for _, n := range r.nodes {
		if n.Stopped() {
			continue
		}
		if got := r.deliveries(n, msgID); got != 1 {
			t.Errorf("%s received %s %d times, want exactly once", n.Self().Addr, msgID, got)
		}
	}
}

// spreadCount is how many segment spreads the ring has observed.
func (r *exactRing) spreadCount() uint64 {
	return r.reg.Snapshot().Histograms[obsv.MetricSegmentSpread].Count
}

// forEachFanOut runs f under the default parallel fan-out and under the
// serialized one (ForwardParallel < 0) that deterministic replay uses.
func forEachFanOut(t *testing.T, f func(t *testing.T, forwardParallel int)) {
	for _, tc := range []struct {
		name string
		fp   int
	}{{"parallel", 0}, {"serialized", -1}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.fp) })
	}
}

// TestSpreadSlotBeatsStaleSuccessor: a table slot naming a live member
// closer than the node's stale successor pointer still receives its
// segment. The node's own pointers alone would prove the segment empty, so
// the slot must be consulted before them.
func TestSpreadSlotBeatsStaleSuccessor(t *testing.T) {
	forEachFanOut(t, func(t *testing.T, fp int) {
		r := newExactRing(t, ModeCAMChord, 16, fp)
		x, m := r.at(0, 0), r.at(0, 1)

		// Forget m in x's successor list, as if m joined after x last
		// stabilized; x's table slots still name m.
		x.mu.Lock()
		stale := make([]NodeInfo, 0, len(x.succRefs))
		for _, ref := range x.succRefs[1:] {
			stale = append(stale, x.arena.Resolve(ref))
		}
		x.setSuccsLocked(stale)
		x.mu.Unlock()

		// The segment (x, m] holds m alone. Its first child must be a table
		// slot naming m, or the test proves nothing.
		plan := x.planSegments(m.Self().ID, nil)
		if len(plan) == 0 || plan[0].viaSucc {
			t.Fatalf("plan for (x, m] = %+v, want a table child first", plan)
		}
		x.mu.Lock()
		idx, _ := x.spec.slotIndex(plan[0].key)
		slot := x.arena.Resolve(x.slotRefs[idx])
		x.mu.Unlock()
		if slot.Addr != m.Self().Addr {
			t.Fatalf("slot %+v holds %s, want %s", plan[0].key, slot.Addr, m.Self().Addr)
		}
		if own, _, err := x.FindSuccessor(plan[0].y); err != nil || own.Addr == m.Self().Addr {
			t.Fatalf("x's own pointers answer %s (err %v), want them to skip %s", own.Addr, err, m.Self().Addr)
		}

		msgID := "stale#1"
		req := multicastReq{MsgID: msgID, Source: x.Self(), Payload: []byte("p"), K: m.Self().ID}
		if _, err := x.handleMulticast(req); err != nil {
			t.Fatal(err)
		}
		for _, n := range r.nodes {
			want := 0
			if n == x || n == m {
				want = 1
			}
			if got := r.deliveries(n, msgID); got != want {
				t.Errorf("%s received %d copies, want %d", n.Self().Addr, got, want)
			}
		}
	})
}

// TestSpreadSuccessorChildSkipsSuspect: with the successor-list head held
// suspect, the successor child goes straight to the next live entry. With
// the dead head not yet suspect, the send fails, the retry re-resolves and
// reaches the same entry: retry and repair run as they always did.
func TestSpreadSuccessorChildSkipsSuspect(t *testing.T) {
	for _, suspect := range []bool{true, false} {
		t.Run(fmt.Sprintf("suspect=%v", suspect), func(t *testing.T) {
			forEachFanOut(t, func(t *testing.T, fp int) {
				r := newExactRing(t, ModeCAMChord, 16, fp)
				// Pick a source whose successor child's segment covers
				// its second successor, so that entry can inherit it.
				xi := -1
				for i, n := range r.nodes {
					plan := n.planSegments(r.space.Sub(n.Self().ID, 1), nil)
					last := plan[len(plan)-1]
					if last.viaSucc && r.space.InOC(r.at(i, 2).Self().ID, n.Self().ID, last.segEnd) {
						xi = i
						break
					}
				}
				if xi < 0 {
					t.Fatal("no member's successor segment covers its second successor")
				}
				x, dead, next := r.at(xi, 0), r.at(xi, 1), r.at(xi, 2)
				dead.Stop()
				if suspect {
					x.markSuspect(dead.Self().Addr)
				}

				msgID, err := x.Multicast([]byte("p"))
				if err != nil {
					t.Fatal(err)
				}
				r.checkExactlyOnce(t, msgID)
				var got []string
				for _, c := range r.log.take() {
					if c.from == x.Self().Addr && c.kind == kindMulticast && (c.to == dead.Self().Addr || c.to == next.Self().Addr) {
						got = append(got, c.to)
					}
				}
				want := []string{next.Self().Addr}
				if !suspect {
					want = []string{dead.Self().Addr, next.Self().Addr}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("x's multicast sends to its successors = %v, want %v", got, want)
				}
				st := x.Stats()
				if wantRetries := uint64(len(want) - 1); st.Retries != wantRetries || st.SegmentsRepaired != 0 || st.SegmentsLost != 0 {
					t.Errorf("x stats %+v, want %d retries, no repair, no loss", st, wantRetries)
				}
			})
		})
	}
}

// TestSpreadExactCalls: on a converged ring, once the first message has
// warmed the lookup memo, each clean multicast makes exactly members-1
// multicast RPCs and no find_successor RPC, and only members that send
// observe a segment spread: a leaf's spread costs nothing.
func TestSpreadExactCalls(t *testing.T) {
	sizes := []int{16, 64, 256}
	if testing.Short() {
		sizes = sizes[:2]
	}
	forEachFanOut(t, func(t *testing.T, fp int) {
		for _, size := range sizes {
			r := newExactRing(t, ModeCAMChord, size, fp)
			src := r.nodes[size/3]
			if _, err := src.Multicast([]byte("warm-up")); err != nil {
				t.Fatal(err)
			}
			r.log.take()
			for i := 0; i < 3; i++ {
				spreads := r.spreadCount()
				msgID, err := src.Multicast([]byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				r.checkExactlyOnce(t, msgID)
				mcasts, lookups := 0, 0
				parents := make(map[string]bool)
				for _, c := range r.log.take() {
					switch c.kind {
					case kindMulticast:
						mcasts++
						parents[c.from] = true
					case kindFindSucc:
						lookups++
					}
				}
				if mcasts != size-1 || lookups != 0 {
					t.Errorf("%d members, message %d: %d multicast and %d find_successor RPCs, want %d and 0",
						size, i, mcasts, lookups, size-1)
				}
				if got := r.spreadCount() - spreads; got != uint64(len(parents)) {
					t.Errorf("%d members, message %d: %d segment spreads observed, want one per forwarding parent (%d)",
						size, i, got, len(parents))
				}
			}
		}
	})
}

var updateFloodLogs = flag.Bool("update-flood-logs", false, "rewrite testdata/flood_serialized_*.log from this tree")

// checkFloodLog compares the ordered (from, to, kind) RPC log of one
// serialized CAM-Koorde multicast on a size-member exact ring with the one
// recorded in testdata, so a change to how a relay makes its offers and
// floods cannot reorder, add or drop an RPC of the serialized fan-out the
// replay engine depends on.
func checkFloodLog(t *testing.T, size int, calls []loggedCall) {
	t.Helper()
	var b strings.Builder
	for _, c := range calls {
		fmt.Fprintf(&b, "%s %s %s\n", c.from, c.to, c.kind)
	}
	path := filepath.Join("testdata", fmt.Sprintf("flood_serialized_%d.log", size))
	if *updateFloodLogs {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%d members: serialized RPC %d is %q, want %q (%d RPCs, want %d; %s)",
				size, i, g, w, len(got)-1, len(wantLines)-1, path)
		}
	}
}

// TestFloodExactCalls: on a converged CAM-Koorde ring, once the first
// message has gone round, each clean multicast delivers by exactly
// members-1 flood RPCs, and every member that floods offers the message to
// each of its neighbours except the one whose flood delivered it: no offer
// goes back to the sender, and the offers number the neighbours summed over
// every member less one per relay whose sender is among its neighbours.
// Serialized, those are all the floods. In parallel two neighbours can
// offer concurrently to a member that has not yet received the payload;
// both are accepted, and the later flood is answered as a duplicate, so
// there the floods beyond members-1 must all be such duplicates.
// Serialized, the first message's ordered RPC log on the 16- and 64-member
// rings must also match the recorded one (checkFloodLog).
func TestFloodExactCalls(t *testing.T) {
	sizes := []int{16, 64, 256}
	if testing.Short() {
		sizes = sizes[:2]
	}
	forEachFanOut(t, func(t *testing.T, fp int) {
		for _, size := range sizes {
			r := newExactRing(t, ModeCAMKoorde, size, fp)
			neighbors := make(map[string][]NodeInfo, size)
			sumNeighbors := 0
			for _, n := range r.nodes {
				nbs := n.appendKoordeNeighbors(nil)
				neighbors[n.Self().Addr] = nbs
				sumNeighbors += len(nbs)
			}
			src := r.nodes[size/3]
			if _, err := src.Multicast([]byte("warm-up")); err != nil {
				t.Fatal(err)
			}
			r.log.take()
			for i := 0; i < 3; i++ {
				msgID, err := src.Multicast([]byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				r.checkExactlyOnce(t, msgID)
				calls := r.log.take()
				if fp < 0 && i == 0 && size <= 64 {
					checkFloodLog(t, size, calls)
				}
				sender := make(map[string]string, size) // relay -> the member whose flood delivered to it
				floods, dups := 0, 0
				for _, c := range calls {
					switch {
					case c.kind != kindFlood:
					case c.dup:
						dups++
					default:
						sender[c.to] = c.from
						floods++
					}
				}
				if floods != size-1 || len(sender) != size-1 {
					t.Errorf("%d members, message %d: %d delivering flood RPCs to %d members, want %d to as many",
						size, i, floods, len(sender), size-1)
				}
				if fp < 0 && dups != 0 {
					t.Errorf("%d members, message %d: %d duplicate flood RPCs under serialized fan-out, want 0", size, i, dups)
				}
				skipped := 0
				for relay, from := range sender {
					for _, nb := range neighbors[relay] {
						if nb.Addr == from {
							skipped++
						}
					}
				}
				offers := 0
				for _, c := range calls {
					if c.kind != kindOffer {
						continue
					}
					offers++
					if from, ok := sender[c.from]; ok && from == c.to {
						t.Errorf("%d members, message %d: %s offered the message back to %s, whose flood it relays",
							size, i, c.from, c.to)
					}
				}
				if want := sumNeighbors - skipped; offers != want {
					t.Errorf("%d members, message %d: %d offer RPCs, want %d (%d neighbours less %d senders)",
						size, i, offers, want, sumNeighbors, skipped)
				}
			}
		}
	})
}
