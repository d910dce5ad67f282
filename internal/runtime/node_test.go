package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

func TestConfigValidation(t *testing.T) {
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	tests := []struct {
		name string
		cfg  Config
		addr string
	}{
		{"zero space", Config{Mode: ModeCAMChord, Capacity: 4}, "a"},
		{"bad mode", Config{Space: space, Mode: 0, Capacity: 4}, "a"},
		{"chord capacity 1", Config{Space: space, Mode: ModeCAMChord, Capacity: 1}, "a"},
		{"koorde capacity 3", Config{Space: space, Mode: ModeCAMKoorde, Capacity: 3}, "a"},
		{"empty addr", Config{Space: space, Mode: ModeCAMChord, Capacity: 4}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(net, tt.addr, tt.cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if _, err := NewNode(nil, "a", Config{Space: space, Mode: ModeCAMChord, Capacity: 4}); err == nil {
		t.Fatal("nil network should fail")
	}
}

func TestModeString(t *testing.T) {
	if ModeCAMChord.String() != "cam-chord" || ModeCAMKoorde.String() != "cam-koorde" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestSingleNodeMulticast(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	n := c.add("solo", 4, "")
	msgID, err := n.Multicast([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.deliveries("solo", msgID); got != 1 {
		t.Fatalf("self delivery count = %d", got)
	}
	if n.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestBootstrapTwice(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	n := c.add("solo", 4, "")
	if err := n.Bootstrap(); !errors.Is(err, ErrStopped) {
		t.Fatalf("second bootstrap err = %v", err)
	}
}

func TestMulticastAfterStop(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	n := c.add("solo", 4, "")
	n.Stop()
	if _, err := n.Multicast(nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
}

func TestRingFormsUnderJoins(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(16, 4)
	c.checkRing()

	// Predecessor pointers should mirror successors.
	nodes := c.sortedByID()
	for i, n := range nodes {
		want := nodes[(i+len(nodes)-1)%len(nodes)].Self()
		pred, ok := n.Predecessor()
		if !ok || pred.Addr != want.Addr {
			t.Fatalf("%s predecessor = %v, want %s", n.Self().Addr, pred, want.Addr)
		}
	}
}

func TestLookupResolvesResponsibleNode(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(20, 5)

	nodes := c.sortedByID()
	idList := make([]ring.ID, len(nodes))
	for i, n := range nodes {
		idList[i] = n.Self().ID
	}
	responsible := func(k ring.ID) NodeInfo {
		for i, id := range idList {
			if id >= k {
				return nodes[i].Self()
			}
		}
		return nodes[0].Self()
	}
	for trial := 0; trial < 200; trial++ {
		k := ring.ID(trial * 317 % int(c.space.Size()))
		want := responsible(k)
		for _, from := range []*Node{nodes[0], nodes[len(nodes)/2], nodes[len(nodes)-1]} {
			got, _, err := from.FindSuccessor(k)
			if err != nil {
				t.Fatalf("lookup %d from %s: %v", k, from.Self().Addr, err)
			}
			if got.Addr != want.Addr {
				t.Fatalf("lookup %d from %s = %s, want %s", k, from.Self().Addr, got.Addr, want.Addr)
			}
		}
	}
}

func TestCAMChordMulticastReachesAll(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(24, 4)

	for _, src := range []int{0, 7, 23} {
		msgID, err := c.live()[src].Multicast([]byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		c.checkExactlyOnce(msgID)
	}
}

func TestCAMKoordeMulticastReachesAll(t *testing.T) {
	c := newCluster(t, ModeCAMKoorde, 16)
	c.grow(24, 6)

	for _, src := range []int{0, 11, 23} {
		msgID, err := c.live()[src].Multicast([]byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		c.checkExactlyOnce(msgID)
	}
}

func TestMulticastDegreeBounded(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(30, 4)
	n := c.live()[3]
	if _, err := n.Multicast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	// The source's forwarded count for one message is bounded by capacity.
	if f := n.Stats().Forwarded; f > uint64(n.Capacity()) {
		t.Fatalf("source forwarded %d copies, capacity %d", f, n.Capacity())
	}
}

func TestGracefulLeaveHealsRing(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(12, 4)

	leaver := c.live()[5]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	c.converge(3)
	c.checkRing()

	msgID, err := c.live()[0].Multicast([]byte("after-leave"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

func TestLeaveTwice(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(4, 4)
	leaver := c.live()[1]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := leaver.Leave(); !errors.Is(err, ErrStopped) {
		t.Fatalf("second leave err = %v", err)
	}
}

func TestCrashRecoveryViaSuccessorLists(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(16, 4)

	// Crash three nodes without notice.
	for _, i := range []int{3, 8, 12} {
		c.live()[i].Stop()
	}
	c.converge(4)
	c.checkRing()

	msgID, err := c.live()[0].Multicast([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

func TestCrashRecoveryKoorde(t *testing.T) {
	c := newCluster(t, ModeCAMKoorde, 16)
	c.grow(16, 6)
	c.live()[4].Stop()
	c.live()[9].Stop()
	c.converge(4)
	c.checkRing()

	msgID, err := c.live()[0].Multicast([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

func TestConcurrentMulticastSources(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(15, 4)

	nodes := c.live()
	msgIDs := make([]string, len(nodes))
	errs := make([]error, len(nodes))
	done := make(chan int, len(nodes))
	for i, n := range nodes {
		go func(i int, n *Node) {
			msgIDs[i], errs[i] = n.Multicast([]byte{byte(i)})
			done <- i
		}(i, n)
	}
	for range nodes {
		<-done
	}
	for i := range nodes {
		if errs[i] != nil {
			t.Fatalf("source %d: %v", i, errs[i])
		}
		c.checkExactlyOnce(msgIDs[i])
	}
}

// TestBackgroundLoopsRunAndStop: members run background maintenance at
// their own cadence on a wall-clock Scheduler, and Stop returns with no
// round of theirs still running.
func TestBackgroundLoopsRunAndStop(t *testing.T) {
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	cfg := Config{
		Space: space, Mode: ModeCAMChord, Capacity: 4,
		StabilizeEvery: time.Millisecond, FixEvery: time.Millisecond,
	}
	sched := NewScheduler(SchedulerConfig{Shards: 1})
	defer sched.Stop()
	a, err := NewNode(net, "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(net, "b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	sched.Add(a)
	sched.Add(b)
	sched.Start()

	// Wait for background maintenance to link the two-node ring.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		succA := a.SuccessorList()
		predA, okA := a.Predecessor()
		if len(succA) > 0 && succA[0].Addr == "b" && okA && predA.Addr == "b" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if succ := a.SuccessorList(); len(succ) == 0 || succ[0].Addr != "b" {
		t.Fatalf("background stabilization did not link ring: %v", succ)
	}
	// Stop must wait out the member's rounds (and not hang).
	for _, n := range []*Node{b, a} {
		n.Stop()
		n.mu.Lock()
		busy := n.busy
		n.mu.Unlock()
		if busy != 0 {
			t.Fatalf("%s: round of kinds %b still running after Stop", n.Self().Addr, busy)
		}
	}
}

// TestJoinSkipsDeadSuccessor: a join whose lookup names a member that has
// just crashed (its predecessor still points at it) must not leave the
// joiner holding only the corpse — it would drop it on the first
// stabilization and sit in a ring of one that no member ever notifies. The
// joiner resolves past the corpse to the live member behind it.
func TestJoinSkipsDeadSuccessor(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(8, 3)
	byID := c.sortedByID()
	pred, victim, next := byID[2], byID[3], byID[4]

	var joiner *Node
	for i := 0; joiner == nil; i++ {
		if i == 10000 {
			t.Fatal("no joiner address hashes between the victim and its predecessor")
		}
		n, err := NewNode(c.net, fmt.Sprintf("joiner-%d", i), c.config(3))
		if err != nil {
			t.Fatal(err)
		}
		if c.space.InOO(n.Self().ID, pred.Self().ID, victim.Self().ID) {
			joiner = n
		}
	}
	t.Cleanup(joiner.Stop)

	victim.Stop()
	if got, _, err := pred.FindSuccessor(joiner.Self().ID); err != nil || got.Addr != victim.Self().Addr {
		t.Fatalf("lookup from the predecessor = %v, %v; the test needs it to name the corpse", got, err)
	}
	if err := joiner.Join(byID[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	if succs := joiner.SuccessorList(); len(succs) == 0 || succs[0].Addr != next.Self().Addr {
		t.Fatalf("joiner successors %v, want %s first", succs, next.Self().Addr)
	}
}

func TestJoinUnreachableBootstrap(t *testing.T) {
	net := transport.NewNetwork(1)
	cfg := Config{Space: ring.MustSpace(16), Mode: ModeCAMChord, Capacity: 4}
	n, err := NewNode(net, "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Join("ghost"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(10, 4)
	src := c.live()[0]
	if _, err := src.Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var totalDelivered, totalForwarded uint64
	for _, n := range c.live() {
		st := n.Stats()
		totalDelivered += st.Delivered
		totalForwarded += st.Forwarded
	}
	if totalDelivered != 10 {
		t.Errorf("total delivered %d, want 10", totalDelivered)
	}
	if totalForwarded != 9 {
		t.Errorf("total forwarded %d, want 9 (tree edges)", totalForwarded)
	}
	if src.Stats().Lookups == 0 {
		t.Error("source served no lookups despite driving joins")
	}
}

// TestTracerRecordsProtocolEvents checks that a subscriber to the nodes'
// event bus sees their joins and deliveries.
func TestTracerRecordsProtocolEvents(t *testing.T) {
	net := transport.NewNetwork(1)
	bus := obsv.NewBus()
	sub := bus.Subscribe(1024)
	defer sub.Close()
	count := func(kind obsv.Kind) int {
		n := 0
		for _, e := range sub.Drain(nil) {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}
	cfg := Config{Space: ring.MustSpace(16), Mode: ModeCAMChord, Capacity: 4, Bus: bus}
	a, _ := NewNode(net, "a", cfg)
	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	b, _ := NewNode(net, "b", cfg)
	if err := b.Join("a"); err != nil {
		t.Fatal(err)
	}
	if got := count(obsv.KindJoin); got != 2 {
		t.Errorf("join events = %d, want 2", got)
	}
	if _, err := a.Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if count(obsv.KindDeliver) == 0 {
		t.Error("no deliver events recorded")
	}
	b.Stop()
	a.Stop()
}
