package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/timing"
	"camcast/internal/transport"
)

// schedCluster builds n members on one in-memory network, all driven by a
// virtual-clock scheduler instead of per-node loops, and returns both. The
// members use the given shard count; bits sizes the identifier space.
func schedCluster(t *testing.T, n, shards int, bits uint) (*Scheduler, []*Node, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(1)
	space := ring.MustSpace(bits)
	clock := timing.NewVirtual(time.Unix(0, 0))
	sched := NewScheduler(SchedulerConfig{Shards: shards, Clock: clock})
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(net, fmt.Sprintf("member-%d", i), Config{
			Space: space, Mode: ModeCAMChord, Capacity: 4, Clock: clock,
			StabilizeEvery: 100 * time.Millisecond, FixEvery: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := node.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := node.Join(nodes[0].Self().Addr); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		sched.Add(node)
		nodes = append(nodes, node)
		// A maintenance period between joins, as a live deployment has.
		sched.Advance(100 * time.Millisecond)
	}
	t.Cleanup(func() {
		sched.Stop()
		for _, node := range nodes {
			node.Stop()
		}
	})
	return sched, nodes, net
}

func ringCorrect(nodes []*Node) float64 {
	live := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if !n.Stopped() {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return 0
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Self().ID < live[j].Self().ID })
	correct := 0
	for i, n := range live {
		want := live[(i+1)%len(live)].Self().Addr
		if succs := n.SuccessorList(); len(succs) > 0 && succs[0].Addr == want {
			correct++
		}
	}
	return float64(correct) / float64(len(live))
}

// TestSchedulerConvergesRing: members maintained only through scheduler
// rounds (no explicit StabilizeOnce calls) converge to a correct ring.
func TestSchedulerConvergesRing(t *testing.T) {
	sched, nodes, _ := schedCluster(t, 24, 1, 16)
	for i := 0; i < 40; i++ {
		sched.Advance(100 * time.Millisecond)
		if ringCorrect(nodes) == 1 {
			break
		}
	}
	if rc := ringCorrect(nodes); rc != 1 {
		t.Fatalf("ring correctness %.2f after scheduler-driven maintenance, want 1.0", rc)
	}
	// Dissemination works off the scheduler-maintained tables.
	var delivered atomic.Int64
	for _, n := range nodes {
		n.cfg.OnDeliver = func(Delivery) { delivered.Add(1) }
	}
	if _, err := nodes[3].Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != int64(len(nodes)) {
		t.Fatalf("multicast reached %d of %d members", got, len(nodes))
	}
}

// TestSchedulerGoroutinesStayOShards is the tentpole invariant: joining
// (and then stopping) thousands of members adds zero goroutines beyond the
// shard loops, because no member owns a ticker.
func TestSchedulerGoroutinesStayOShards(t *testing.T) {
	members := 10_000
	if testing.Short() {
		members = 2_000
	}
	base := goruntime.NumGoroutine()

	net := transport.NewNetwork(1)
	space := ring.MustSpace(32)
	clock := timing.NewVirtual(time.Unix(0, 0))
	sched := NewScheduler(SchedulerConfig{Shards: 4, Clock: clock})
	var nodes []*Node
	bootstrap := ""
	for i := 0; i < members; i++ {
		node, err := NewNode(net, fmt.Sprintf("m-%d", i), Config{
			Space: space, Mode: ModeCAMChord, Capacity: 8, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := node.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			bootstrap = node.Self().Addr
		} else if err := node.Join(bootstrap); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		sched.Add(node)
		nodes = append(nodes, node)
		if i%256 == 0 {
			sched.Advance(500 * time.Millisecond)
		}
	}
	if got := sched.Members(); got != members {
		t.Fatalf("scheduler owns %d members, want %d", got, members)
	}
	sched.Advance(time.Second)

	// Virtual mode runs on the callers' goroutines: the whole fleet must
	// cost zero standing goroutines beyond the test's own baseline.
	if got := goruntime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d goroutines while hosting %d members (base %d): maintenance is not O(shards)", got, members, base)
	}

	for _, n := range nodes {
		sched.Remove(n)
		n.Stop()
	}
	sched.Stop()
	if got := goruntime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d goroutines after stopping all members (base %d)", got, base)
	}
}

// TestSchedulerWallModeMaintains: with a wall clock, Start's shard loops
// stabilize the ring on their own; Stop quiesces them.
func TestSchedulerWallModeMaintains(t *testing.T) {
	base := goruntime.NumGoroutine()
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	sched := NewScheduler(SchedulerConfig{Shards: 2})
	var nodes []*Node
	for i := 0; i < 12; i++ {
		node, err := NewNode(net, fmt.Sprintf("w-%d", i), Config{
			Space: space, Mode: ModeCAMChord, Capacity: 4,
			StabilizeEvery: 2 * time.Millisecond, FixEvery: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := node.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := node.Join(nodes[0].Self().Addr); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, node)
		sched.Add(node)
	}
	sched.Start()
	deadline := time.Now().Add(5 * time.Second)
	for ringCorrect(nodes) < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rc := ringCorrect(nodes); rc != 1 {
		t.Fatalf("ring correctness %.2f under wall-clock scheduling", rc)
	}
	sched.Stop()
	for _, n := range nodes {
		n.Stop()
	}
	deadline = time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d goroutines after Stop (base %d): shard loops leaked", got, base)
	}
}

// TestSchedulerRemoveCancelsMaintenance: a removed member receives no
// further callbacks (its wheel entries die by generation mismatch), and
// its slot is safely reusable by a new member.
func TestSchedulerRemoveCancelsMaintenance(t *testing.T) {
	reg := obsv.NewRegistry()
	clock := timing.NewVirtual(time.Unix(0, 0))
	sched := NewScheduler(SchedulerConfig{Shards: 1, Clock: clock, Metrics: reg, SeenSweepEvery: -1})
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	cfg := Config{
		Space: space, Mode: ModeCAMChord, Capacity: 4, Clock: clock,
		StabilizeEvery: 100 * time.Millisecond, FixEvery: 100 * time.Millisecond,
	}
	a, err := NewNode(net, "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sched.Add(a)
	sched.Advance(time.Second)
	before := reg.Counter(obsv.MetricSchedRounds).Load()
	if before == 0 {
		t.Fatal("no maintenance rounds ran while the member was owned")
	}
	sched.Remove(a)
	if got := reg.Gauge(obsv.MetricSchedMembers).Load(); got != 0 {
		t.Fatalf("members gauge %d after removal", got)
	}
	sched.Advance(5 * time.Second)
	if after := reg.Counter(obsv.MetricSchedRounds).Load(); after != before {
		t.Fatalf("rounds advanced from %d to %d after removal", before, after)
	}

	// Reuse the freed slot: the new occupant must get fresh maintenance.
	b, err := NewNode(net, "a2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sched.Add(b)
	sched.Advance(time.Second)
	if after := reg.Counter(obsv.MetricSchedRounds).Load(); after == before {
		t.Fatal("slot reuse: new member received no maintenance")
	}
	a.Stop()
	b.Stop()
}

// TestSchedulerSweepsSeenCaches: the scheduler's slow sweep cadence
// rotates members' dedup generations, draining idle caches to empty.
func TestSchedulerSweepsSeenCaches(t *testing.T) {
	clock := timing.NewVirtual(time.Unix(0, 0))
	sched := NewScheduler(SchedulerConfig{Shards: 1, Clock: clock, SeenSweepEvery: time.Second})
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	n, err := NewNode(net, "s", Config{
		Space: space, Mode: ModeCAMChord, Capacity: 4, Clock: clock,
		StabilizeEvery: -1, FixEvery: -1, // isolate the sweep cadence
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	sched.Add(n)
	n.seen.Record("old-message")
	// Step time rather than jump it: a rearm lands one period after the
	// step that fired it, so each second of stepped time yields one sweep.
	for i := 0; i < 4; i++ {
		sched.Advance(time.Second)
	}
	if n.seen.Len() != 0 {
		t.Fatalf("seen cache holds %d ids after idle sweeps, want 0", n.seen.Len())
	}
}

// TestSchedulerDeterministicSingleShard: two identical single-shard
// virtual runs — joins, churn, maintenance, a multicast — agree exactly on
// ring state and protocol counters.
func TestSchedulerDeterministicSingleShard(t *testing.T) {
	run := func() (string, Stats) {
		net := transport.NewNetwork(7)
		space := ring.MustSpace(16)
		clock := timing.NewVirtual(time.Unix(0, 0))
		sched := NewScheduler(SchedulerConfig{Shards: 1, Clock: clock})
		var nodes []*Node
		for i := 0; i < 16; i++ {
			node, err := NewNode(net, fmt.Sprintf("d-%d", i), Config{
				Space: space, Mode: ModeCAMChord, Capacity: 4, Clock: clock,
				StabilizeEvery: 100 * time.Millisecond, FixEvery: 100 * time.Millisecond,
				ForwardParallel: -1, RetryBackoff: -1, ForwardTimeout: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := node.Bootstrap(); err != nil {
					t.Fatal(err)
				}
			} else if err := node.Join(nodes[0].Self().Addr); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
			nodes = append(nodes, node)
			sched.Add(node)
			sched.Advance(100 * time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			sched.Advance(100 * time.Millisecond)
		}
		// Churn: crash two members, keep maintaining.
		for _, i := range []int{5, 11} {
			sched.Remove(nodes[i])
			nodes[i].Stop()
		}
		for i := 0; i < 20; i++ {
			sched.Advance(100 * time.Millisecond)
		}
		if _, err := nodes[2].Multicast([]byte("probe")); err != nil {
			t.Fatal(err)
		}

		var fp string
		var total Stats
		for _, n := range nodes {
			if n.Stopped() {
				continue
			}
			succs := n.SuccessorList()
			fp += n.Self().Addr + "->"
			if len(succs) > 0 {
				fp += succs[0].Addr
			}
			fp += ";"
			st := n.Stats()
			total.Delivered += st.Delivered
			total.Forwarded += st.Forwarded
			total.Duplicates += st.Duplicates
			total.Lookups += st.Lookups
			total.TableFaults += st.TableFaults
			n.Stop()
		}
		sched.Stop()
		return fp, total
	}
	fp1, st1 := run()
	fp2, st2 := run()
	if fp1 != fp2 {
		t.Fatalf("ring fingerprints diverged:\n%s\n%s", fp1, fp2)
	}
	if st1 != st2 {
		t.Fatalf("counters diverged: %+v vs %+v", st1, st2)
	}
}

// notifyCounter counts the notify calls a member makes: one per completed
// stabilize round.
type notifyCounter struct {
	Transport
	n atomic.Int64
}

func (c *notifyCounter) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	resp, err := c.Transport.Call(ctx, from, to, kind, payload)
	if kind == kindNotify {
		c.n.Add(1)
	}
	return resp, err
}

// TestSchedulerWallModeNoHeadOfLineBlocking: on a one-shard wall-clock
// scheduler, a member whose stabilize call hangs on a black-holed link
// must not hold up the other members' rounds, and Stop on that member
// returns only once its hung round has ended.
func TestSchedulerWallModeNoHeadOfLineBlocking(t *testing.T) {
	net := transport.NewNetwork(1)
	space := ring.MustSpace(16)
	var nodes []*Node
	var counts []*notifyCounter
	for i := 0; i < 8; i++ {
		c := &notifyCounter{Transport: net}
		node, err := NewNode(c, fmt.Sprintf("h-%d", i), Config{
			Space: space, Mode: ModeCAMChord, Capacity: 4,
			StabilizeEvery: 5 * time.Millisecond, FixEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = node.Bootstrap()
		} else {
			err = node.Join(nodes[0].Self().Addr)
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		counts = append(counts, c)
	}
	for r := 0; r < 8; r++ {
		for _, n := range nodes {
			n.StabilizeOnce()
		}
	}
	victim, succ := nodes[0].Self().Addr, nodes[0].SuccessorList()[0].Addr
	net.SetLinkDelay(victim, succ, 2*time.Second)

	sched := NewScheduler(SchedulerConfig{Shards: 1})
	defer sched.Stop()
	for _, n := range nodes {
		sched.Add(n)
	}
	before := make([]int64, len(nodes))
	for i, c := range counts {
		before[i] = c.n.Load()
	}
	sched.Start()
	time.Sleep(300 * time.Millisecond)
	for i := 1; i < len(nodes); i++ {
		if got := counts[i].n.Load() - before[i]; got < 10 {
			t.Errorf("%s completed %d stabilize rounds in 300ms while %s hung, want >= 10",
				nodes[i].Self().Addr, got, victim)
		}
	}

	// Lift the black hole so the victim's round ends after the call
	// already in flight, then stop it mid-round.
	net.SetLinkDelay(victim, succ, 0)
	nodes[0].Stop()
	nodes[0].mu.Lock()
	busy := nodes[0].busy
	nodes[0].mu.Unlock()
	if busy != 0 {
		t.Fatalf("Stop returned with the hung round still running (kinds %b)", busy)
	}
	for _, n := range nodes[1:] {
		n.Stop()
	}
}
