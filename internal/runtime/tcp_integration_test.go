package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"camcast/internal/ring"
	"camcast/internal/transport"
)

// TestMulticastOverTCP runs the full protocol — join, stabilization, table
// repair and multicast — across real TCP sockets, one transport per node as
// separate processes would have.
func TestMulticastOverTCP(t *testing.T) {
	RegisterWireTypes()
	const groupSize = 6
	space := ring.MustSpace(32)

	var (
		mu  sync.Mutex
		got = map[string]map[string]int{} // addr -> msgID -> count
	)

	transports := make([]*transport.TCP, 0, groupSize)
	nodes := make([]*Node, 0, groupSize)
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})

	for i := 0; i < groupSize; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		addr := tr.Addr()
		cfg := Config{
			Space: space, Mode: ModeCAMChord, Capacity: 3,
			OnDeliver: func(d Delivery) {
				mu.Lock()
				defer mu.Unlock()
				if got[addr] == nil {
					got[addr] = map[string]int{}
				}
				got[addr][d.MsgID]++
			},
		}
		n, err := NewNode(tr, addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := n.Join(transports[0].Addr()); err != nil {
			t.Fatalf("node %d join over tcp: %v", i, err)
		}
		for r := 0; r < 2; r++ {
			for _, m := range nodes {
				m.StabilizeOnce()
			}
		}
	}
	for r := 0; r < 3; r++ {
		for _, m := range nodes {
			m.StabilizeOnce()
		}
		for _, m := range nodes {
			m.FixAll()
		}
	}

	msgID, err := nodes[2].Multicast([]byte("over real sockets"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range nodes {
		if got[n.Self().Addr][msgID] != 1 {
			t.Errorf("%s received %d copies of %s, want exactly 1",
				n.Self().Addr, got[n.Self().Addr][msgID], msgID)
		}
	}
}

// TestLookupOverTCP verifies that recursive find_successor chains work
// across sockets, including the wire round trip of every type involved.
func TestLookupOverTCP(t *testing.T) {
	RegisterWireTypes()
	space := ring.MustSpace(32)

	var transports []*transport.TCP
	var nodes []*Node
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})
	for i := 0; i < 4; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		n, err := NewNode(tr, tr.Addr(), Config{Space: space, Mode: ModeCAMKoorde, Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := n.Join(transports[0].Addr()); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for _, m := range nodes {
				m.StabilizeOnce()
			}
		}
	}
	for _, m := range nodes {
		m.FixAll()
	}

	// Every node resolves every other node's own identifier to that node.
	for _, from := range nodes {
		for _, target := range nodes {
			resp, _, err := from.FindSuccessor(target.Self().ID)
			if err != nil {
				t.Fatalf("lookup over tcp: %v", err)
			}
			if resp.Addr != target.Self().Addr {
				t.Errorf("lookup of %d from %s = %s, want %s",
					target.Self().ID, from.Self().Addr, resp.Addr, target.Self().Addr)
			}
		}
	}
}

// TestRemoteLookupExhaustionIsTyped checks that a lookup which runs out of
// hops at a remote node reaches the caller as ErrLookupFailed under
// errors.Is, on both transports: the mem transport hands the sentinel
// through, the TCP transport carries it as a wire status code. The caller
// sends its successor a request with the whole hop budget already spent,
// for a key the successor must forward, so the exhaustion happens one hop
// further on and travels back through the successor.
func TestRemoteLookupExhaustionIsTyped(t *testing.T) {
	RegisterWireTypes()
	mem := transport.NewNetwork(1)
	for _, tc := range []struct {
		name  string
		start func(t *testing.T, i int) (Transport, string)
	}{
		{"mem", func(t *testing.T, i int) (Transport, string) { return mem, fmt.Sprintf("n%d", i) }},
		{"tcp", func(t *testing.T, i int) (Transport, string) {
			tr, err := transport.NewTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr, tr.Addr()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := make([]*Node, 4)
			for i := range nodes {
				tr, addr := tc.start(t, i)
				n, err := NewNode(tr, addr, Config{Space: ring.MustSpace(32), Mode: ModeCAMChord, Capacity: 4})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Stop)
				if i == 0 {
					err = n.Bootstrap()
				} else {
					err = n.Join(nodes[0].Self().Addr)
				}
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = n
			}
			for r := 0; r < 4; r++ {
				for _, n := range nodes {
					n.StabilizeOnce()
				}
				for _, n := range nodes {
					n.FixAll()
				}
			}
			a := nodes[0]
			succ := a.SuccessorList()[0]
			// a's own identifier lies outside its successor's segment and
			// the one after it, so the successor has to forward.
			_, err := a.call(succ.Addr, kindFindSucc, findSuccReq{K: a.Self().ID, Hops: a.maxLookupHops()})
			if err == nil {
				t.Fatal("lookup with an exhausted hop budget succeeded")
			}
			if !errors.Is(err, ErrLookupFailed) || !isLookupFailed(err) {
				t.Fatalf("err = %v (%T), want one matching ErrLookupFailed", err, err)
			}
		})
	}
}

// TestVetoedNotifyChecksDeadPredecessor: nothing calls a predecessor, so
// over TCP a crashed predecessor used to veto every notify from the live
// member behind it for good. The refused notify now makes the next
// stabilization round ping the predecessor, and the failed ping drops it.
// The crash is checked twice: with the member's whole process gone, and
// with only the member gone from a host that still listens (its calls are
// answered "no endpoint here", which must read as unreachable too).
func TestVetoedNotifyChecksDeadPredecessor(t *testing.T) {
	for _, hostUp := range []bool{false, true} {
		t.Run(fmt.Sprintf("hostUp=%v", hostUp), func(t *testing.T) { vetoedNotifyChecksDeadPredecessor(t, hostUp) })
	}
}

func vetoedNotifyChecksDeadPredecessor(t *testing.T, hostUp bool) {
	RegisterWireTypes()
	space := ring.MustSpace(32)
	var nodes []*Node
	var transports []*transport.TCP
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})
	for i := 0; i < 3; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		n, err := NewNode(tr, tr.Addr(), Config{Space: space, Mode: ModeCAMChord, Capacity: 3})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			err = n.Bootstrap()
		} else {
			err = n.Join(transports[0].Addr())
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for _, m := range nodes {
				m.StabilizeOnce()
			}
		}
	}
	byID := append([]*Node(nil), nodes...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].Self().ID < byID[j].Self().ID })
	p, d, x := byID[0], byID[1], byID[2]
	if pr, ok := x.Predecessor(); !ok || pr.Addr != d.Self().Addr {
		t.Fatalf("before the crash %s has predecessor %v, want %s", x.Self().Addr, pr, d.Self().Addr)
	}

	d.Stop()
	for i, n := range nodes {
		if n == d && !hostUp {
			transports[i].Close()
		}
	}
	p.StabilizeOnce() // the call to d fails: p drops it and moves on to x
	p.StabilizeOnce() // p notifies x, which refuses in favour of d
	x.StabilizeOnce() // x pings d; the failed call marks it and x drops it
	p.StabilizeOnce() // p notifies x again
	if pr, ok := x.Predecessor(); !ok || pr.Addr != p.Self().Addr {
		t.Fatalf("after the crash %s has predecessor %v, want %s", x.Self().Addr, pr, p.Self().Addr)
	}
}

// TestSendDeadlineOverTCP pins the TCP side of the per-child deadline
// contract. The deadline a child send carries is a value on the context,
// with no timer behind it to close Done(), so the transport's deadline
// sweeper alone must fail a call whose handler blocks past ForwardTimeout,
// and must do so at about ForwardTimeout, as unreachable, marking the peer
// suspect. The caller cancelling its own context must still abort a call
// in flight, without marking the peer.
func TestSendDeadlineOverTCP(t *testing.T) {
	RegisterWireTypes()
	for _, tc := range []struct {
		name           string
		forwardTimeout time.Duration
		cancelAfter    time.Duration // 0: never cancel
	}{
		{"deadline", 200 * time.Millisecond, 0},
		{"cancel", time.Minute, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			peer, err := transport.NewTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { peer.Close() })
			t.Cleanup(func() { close(release) }) // before peer.Close: unblock the handler
			peer.Register(peer.Addr(), func(from, kind string, payload any) (any, error) {
				<-release
				return pingResp{}, nil
			})

			tr, err := transport.NewTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			n, err := NewNode(tr, tr.Addr(), Config{
				Space: ring.MustSpace(32), Mode: ModeCAMChord, Capacity: 3,
				ForwardTimeout: tc.forwardTimeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.Stop)
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter > 0 {
				time.AfterFunc(tc.cancelAfter, cancel)
			}
			start := time.Now()
			_, err = n.sendTimed(ctx, peer.Addr(), kindPing, pingReq{})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("a call to a blocked handler succeeded")
			}
			want := tc.forwardTimeout
			if tc.cancelAfter > 0 {
				want = tc.cancelAfter
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want the caller's cancellation", err)
				}
				if n.isSuspect(peer.Addr()) {
					t.Error("the caller's own cancellation marked the peer suspect")
				}
			} else {
				if !unreachable(err) {
					t.Errorf("err = %v, want one that reads as unreachable", err)
				}
				if !n.isSuspect(peer.Addr()) {
					t.Error("the peer was not marked suspect after missing its deadline")
				}
			}
			if elapsed < want || elapsed > want+time.Second {
				t.Errorf("call failed after %v, want about %v", elapsed, want)
			}
		})
	}
}

// TestPooledDeadlinesOverTCP interleaves many concurrent child sends from
// one node over TCP, with the deadline sweeper running, so the deadline
// contexts the sends borrow from their pool are reused across goroutines
// while the transport still reads earlier ones. Sends to a blocked handler
// must each fail at about ForwardTimeout, read as unreachable and leave the
// peer suspect; sends to a live one must each succeed. Under -race a
// context returned to the pool while the transport still held it is a
// reported race.
func TestPooledDeadlinesOverTCP(t *testing.T) {
	RegisterWireTypes()
	const (
		forwardTimeout = 200 * time.Millisecond
		senders        = 8
		callsEach      = 24
	)
	release := make(chan struct{})
	blocked, err := transport.NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { blocked.Close() })
	t.Cleanup(func() { close(release) }) // before blocked.Close: unblock its handlers
	blocked.Register(blocked.Addr(), func(from, kind string, payload any) (any, error) {
		<-release
		return pingResp{}, nil
	})
	live, err := transport.NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	live.Register(live.Addr(), func(from, kind string, payload any) (any, error) {
		return pingResp{}, nil
	})

	tr, err := transport.NewTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	n, err := NewNode(tr, tr.Addr(), Config{
		Space: ring.MustSpace(32), Mode: ModeCAMChord, Capacity: 3,
		ForwardTimeout: forwardTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, senders*callsEach)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				if (g+i)%4 != 0 {
					if _, err := n.sendTimed(context.Background(), live.Addr(), kindPing, pingReq{}); err != nil {
						errs <- fmt.Errorf("sender %d call %d to the live peer: %v", g, i, err)
					}
					continue
				}
				start := time.Now()
				_, err := n.sendTimed(context.Background(), blocked.Addr(), kindPing, pingReq{})
				elapsed := time.Since(start)
				switch {
				case err == nil:
					errs <- fmt.Errorf("sender %d call %d to the blocked peer succeeded", g, i)
				case !unreachable(err):
					errs <- fmt.Errorf("sender %d call %d to the blocked peer: err = %v, want one that reads as unreachable", g, i, err)
				case !n.isSuspect(blocked.Addr()):
					errs <- fmt.Errorf("sender %d call %d: the blocked peer was not marked suspect", g, i)
				}
				if elapsed < forwardTimeout || elapsed > forwardTimeout+time.Second {
					errs <- fmt.Errorf("sender %d call %d to the blocked peer failed after %v, want about %v", g, i, elapsed, forwardTimeout)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// tcpKoordeGroup bulk-installs size CAM-Koorde members of capacity 4, each
// on its own loopback TCP transport as separate processes would have, and
// returns them sorted by identifier with their transports. tweak adjusts
// the config of the member at addr.
func tcpKoordeGroup(t *testing.T, size int, tweak func(addr string, cfg *Config)) ([]*Node, map[*Node]*transport.TCP) {
	t.Helper()
	RegisterWireTypes()
	nodes := make([]*Node, 0, size)
	trs := make(map[*Node]*transport.TCP, size)
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range trs {
			tr.Close()
		}
	})
	for i := 0; i < size; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// 32 bits: identifiers hashed from loopback addresses must not
		// collide, which for eight members in 16 bits happens about once
		// in 2 300 groups.
		cfg := Config{Space: ring.MustSpace(32), Mode: ModeCAMKoorde, Capacity: 4}
		tweak(tr.Addr(), &cfg)
		n, err := NewNode(tr, tr.Addr(), cfg)
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		trs[n] = tr
	}
	if err := BulkInstall(nodes, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Self().ID < nodes[j].Self().ID })
	return nodes, trs
}

// holdHandler makes n's transport hold every request to n until release
// closes, then serve it as n would have.
func holdHandler(n *Node, tr *transport.TCP, release <-chan struct{}) {
	tr.Register(n.Self().Addr, func(from, kind string, payload any) (any, error) {
		<-release
		return n.handleRPC(from, kind, payload)
	})
}

// TestFloodSlowNeighborOverTCP: over TCP a CAM-Koorde relay runs each
// neighbour's offer on its own lane, so a neighbour whose handler blocks
// delays only its own offer. The blocked member is the source's
// predecessor, the first neighbour of its plan: offers made one after
// another, as the relay makes them in process, would hold every flood
// behind it until ForwardTimeout. Every other member must have the message well before
// then, and the source must mark the blocked member suspect, which only a
// failure that reads as unreachable does, at about ForwardTimeout.
func TestFloodSlowNeighborOverTCP(t *testing.T) {
	const (
		size           = 8
		forwardTimeout = time.Second
	)
	var (
		mu        sync.Mutex
		delivered = make(map[string]time.Time)
	)
	nodes, trs := tcpKoordeGroup(t, size, func(addr string, cfg *Config) {
		cfg.ForwardTimeout = forwardTimeout
		cfg.OnDeliver = func(Delivery) {
			mu.Lock()
			delivered[addr] = time.Now()
			mu.Unlock()
		}
	})
	slow, src := nodes[0], nodes[1]
	if nbs := src.appendKoordeNeighbors(nil); len(nbs) == 0 || nbs[0].Addr != slow.Self().Addr {
		t.Fatalf("the source's first neighbour is %v, want its predecessor %s", nbs, slow.Self().Addr)
	}
	release := make(chan struct{})
	var released sync.Once
	// Registered after the group's cleanup, so it runs first: held
	// handlers finish before the transports close.
	t.Cleanup(func() { released.Do(func() { close(release) }) })
	holdHandler(slow, trs[slow], release)

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := src.Multicast([]byte("around a slow neighbour"))
		done <- err
	}()

	// Every member but the slow one has the message well before the
	// slow one's offer can time out.
	for {
		mu.Lock()
		got := len(delivered)
		mu.Unlock()
		if got == size-1 {
			break
		}
		if time.Since(start) > forwardTimeout/2 {
			t.Fatalf("after %v only %d of %d members have the message: the slow neighbour held the flood up", time.Since(start), got, size-1)
		}
		time.Sleep(time.Millisecond)
	}
	if src.isSuspect(slow.Self().Addr) {
		t.Fatal("the slow neighbour was marked suspect before its offer's deadline")
	}
	for !src.isSuspect(slow.Self().Addr) {
		if time.Since(start) > forwardTimeout+time.Second {
			t.Fatalf("the slow neighbour was not marked suspect %v after the multicast began", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < forwardTimeout {
		t.Errorf("the slow neighbour was marked suspect after %v, before its %v deadline", elapsed, forwardTimeout)
	}
	released.Do(func() { close(release) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * forwardTimeout):
		t.Fatal("the multicast did not return once the slow neighbour answered")
	}
}
