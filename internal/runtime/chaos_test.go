package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"camcast/internal/transport"
)

// chaosTweak tightens the forwarding engine's budgets so chaos tests run in
// milliseconds instead of the production-scale defaults.
func chaosTweak(cfg *Config) {
	cfg.ForwardTimeout = 250 * time.Millisecond
	cfg.CallTimeout = 250 * time.Millisecond
	cfg.RetryBackoff = time.Millisecond
}

// sumStats aggregates a stat across the given nodes.
func sumStats(nodes []*Node, f func(Stats) uint64) uint64 {
	var total uint64
	for _, n := range nodes {
		total += f(n.Stats())
	}
	return total
}

// runCrashChaos drives the shared crash scenario: a converged cluster, a
// seeded FaultPlan killing 10% of the members (2 of 20) the moment the
// multicast starts disseminating, and the assertion that every survivor
// still receives the message exactly once with no segment reported lost —
// the repair machinery covered every orphan.
//
// Fan-out is serialized so the dissemination runs in plan order on one
// goroutine and the crash meets the same interleaving every run. With
// parallel fan-out, whether a dead child's parent first gets the corpse
// back from a lookup (and retries, then repairs) or the live successor
// (because the corpse's predecessor already dropped it) depends on which
// node's goroutine runs first.
func runCrashChaos(t *testing.T, mode Mode, capacity int) {
	t.Helper()
	c := newCluster(t, mode, 16)
	c.tweak = func(cfg *Config) {
		chaosTweak(cfg)
		cfg.ForwardParallel = -1
	}
	c.grow(20, capacity)

	byID := c.sortedByID()
	origin := byID[0]
	victims := []*Node{byID[6], byID[13]} // non-adjacent, not the origin
	victimAddr := map[string]bool{}
	var victimAddrs []string
	for _, v := range victims {
		victimAddr[v.Self().Addr] = true
		victimAddrs = append(victimAddrs, v.Self().Addr)
	}

	calls, _ := c.net.Stats()
	c.net.SetFaultPlan(&transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, At: calls, Addrs: victimAddrs},
	}})

	msgID, err := origin.Multicast([]byte("chaos"))
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range c.live() {
		addr := n.Self().Addr
		got := c.deliveries(addr, msgID)
		if victimAddr[addr] {
			if got != 0 {
				t.Errorf("crashed member %s received the message", addr)
			}
			continue
		}
		if got != 1 {
			t.Errorf("survivor %s received %s %d times, want exactly once", addr, msgID, got)
		}
	}
	if lost := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsLost }); lost != 0 {
		t.Errorf("segmentsLost = %d after repair, want 0", lost)
	}
	if engaged := sumStats(c.live(), func(s Stats) uint64 { return s.Retries + s.SegmentsRepaired }); engaged == 0 {
		t.Error("crash chaos run never engaged the retry/repair machinery")
	}
}

func TestChaosCrashMidMulticastChord(t *testing.T) {
	runCrashChaos(t, ModeCAMChord, 4)
}

func TestChaosCrashMidMulticastKoorde(t *testing.T) {
	runCrashChaos(t, ModeCAMKoorde, 6)
}

// runBurstLossChaos drives a burst-loss window over the whole multicast and
// asserts the retry engine keeps delivery complete, then heals the plan and
// checks clean delivery again.
func runBurstLossChaos(t *testing.T, mode Mode, capacity int) {
	t.Helper()
	c := newCluster(t, mode, 16)
	c.tweak = func(cfg *Config) {
		chaosTweak(cfg)
		cfg.ForwardRetries = 4 // enough budget to ride out 30% burst loss
	}
	c.grow(16, capacity)

	calls, _ := c.net.Stats()
	c.net.SetFaultPlan(&transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultLoss, At: calls, Rate: 0.3},
	}})
	msgID, err := c.live()[3].Multicast([]byte("lossy"))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, n := range c.live() {
		got := c.deliveries(n.Self().Addr, msgID)
		if got > 1 {
			t.Errorf("%s received %s %d times under burst loss", n.Self().Addr, msgID, got)
		}
		delivered += got
	}
	ratio := float64(delivered) / float64(len(c.live()))
	if ratio < 0.9 {
		t.Errorf("delivery ratio %.2f under 30%% burst loss, want >= 0.9", ratio)
	}
	if lost := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsLost }); lost == 0 && ratio < 1 {
		t.Errorf("delivery ratio %.2f but no segments reported lost: silent loss", ratio)
	}
	if retries := sumStats(c.live(), func(s Stats) uint64 { return s.Retries }); retries == 0 {
		t.Error("burst loss provoked no retries")
	}

	// Heal and verify clean delivery resumes.
	c.net.SetFaultPlan(nil)
	c.converge(3)
	msgID, err = c.live()[0].Multicast([]byte("after heal"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

// TestChaosUnreachableChildCountedLost: a child that stays registered but
// drops every request (a one-way link failure, not a crash) exhausts its
// parent's retries. Repair hands the rest of its segment on, so everyone
// else still gets the message — and the child's own miss is counted lost
// rather than passing as a clean repair.
func TestChaosUnreachableChildCountedLost(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) {
		chaosTweak(cfg)
		cfg.ForwardParallel = -1
	}
	c.grow(12, 3)

	byID := c.sortedByID()
	origin, deaf := byID[0], byID[5]
	calls, _ := c.net.Stats()
	c.net.SetFaultPlan(&transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultLoss, At: calls, To: deaf.Self().Addr, Rate: 1},
	}})
	msgID, err := origin.Multicast([]byte("one deaf member"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.live() {
		want := 1
		if n == deaf {
			want = 0
		}
		if got := c.deliveries(n.Self().Addr, msgID); got != want {
			t.Errorf("%s received %s %d times, want %d", n.Self().Addr, msgID, got, want)
		}
	}
	if repaired := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsRepaired }); repaired == 0 {
		t.Error("the deaf member's segment was never repaired")
	}
	if lost := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsLost }); lost == 0 {
		t.Error("the deaf member missed the message but no segment was counted lost: silent loss")
	}
}

func TestChaosBurstLossChord(t *testing.T) {
	runBurstLossChaos(t, ModeCAMChord, 4)
}

func TestChaosBurstLossKoorde(t *testing.T) {
	runBurstLossChaos(t, ModeCAMKoorde, 6)
}

// TestChaosPartitionWindowChord cuts three non-adjacent members off behind
// a scheduled partition window: members behind the partition miss the
// message (and the loss is accounted, not silent), everyone else still
// gets it exactly once via segment repair; after the window heals, full
// delivery resumes.
func TestChaosPartitionWindowChord(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = chaosTweak
	c.grow(15, 4)

	byID := c.sortedByID()
	cut := []*Node{byID[2], byID[7], byID[11]}
	cutAddr := map[string]bool{}
	var cutAddrs []string
	for _, n := range cut {
		cutAddr[n.Self().Addr] = true
		cutAddrs = append(cutAddrs, n.Self().Addr)
	}

	calls, _ := c.net.Stats()
	c.net.SetFaultPlan(&transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultPartition, At: calls, Until: calls + 400, Addrs: cutAddrs, Partition: 1},
	}})
	msgID, err := byID[0].Multicast([]byte("partition window"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.live() {
		addr := n.Self().Addr
		got := c.deliveries(addr, msgID)
		if cutAddr[addr] {
			if got != 0 {
				t.Errorf("partitioned member %s received the message", addr)
			}
		} else if got != 1 {
			t.Errorf("connected member %s received %s %d times, want exactly once", addr, msgID, got)
		}
	}
	if engaged := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsRepaired + s.SegmentsLost }); engaged == 0 {
		t.Error("partition provoked neither repair nor loss accounting")
	}

	// Let the window expire (call indices advance during maintenance),
	// then delivery must be complete again.
	for {
		if n, _ := c.net.Stats(); n >= calls+400 {
			break
		}
		c.converge(1)
	}
	c.converge(2)
	msgID, err = byID[1].Multicast([]byte("after window"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

// TestConcurrentFanoutSlowChild verifies the two core fan-out properties:
// (1) a multicast with one unresponsive child completes to every other
// member without waiting out the slow child's full latency even once, and
// (2) the orphaned segment behind the unresponsive child is repaired, not
// dropped. The slow child stays registered (so failure detection cannot
// shortcut it) but its inbound latency far exceeds the per-child deadline,
// set either as the network's latency function or as a link delay. It also
// pins the mem transport's side of the deadline contract: the per-child
// deadline is a value on the context, not a timer closing Done(), and the
// transport clips the simulated delay at it, so one send to the slow child
// fails after about ForwardTimeout with an error that marks it suspect.
func TestConcurrentFanoutSlowChild(t *testing.T) {
	for _, slowBy := range []string{"latency", "link-delay"} {
		t.Run(slowBy, func(t *testing.T) { concurrentFanoutSlowChild(t, slowBy) })
	}
}

func concurrentFanoutSlowChild(t *testing.T, slowBy string) {
	const (
		slowLatency    = 2 * time.Second
		forwardTimeout = 50 * time.Millisecond
	)
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) {
		cfg.ForwardTimeout = forwardTimeout
		cfg.CallTimeout = 25 * time.Millisecond
		cfg.RetryBackoff = time.Millisecond
		cfg.ForwardRetries = 1
	}
	c.grow(10, 4)

	byID := c.sortedByID()
	origin := byID[0]
	slow := byID[4]
	slowAddr := slow.Self().Addr
	switch slowBy {
	case "latency":
		c.net.SetLatency(func(from, to string) time.Duration {
			if to == slowAddr {
				return slowLatency
			}
			return 0
		})
		defer c.net.SetLatency(nil)
	case "link-delay":
		c.net.SetLinkDelay("", slowAddr, slowLatency)
		defer c.net.SetLinkDelay("", slowAddr, 0)
	}

	start := time.Now()
	_, err := origin.sendTimed(context.Background(), slowAddr, kindPing, pingReq{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a send to the slow child succeeded inside its deadline")
	}
	if elapsed < forwardTimeout || elapsed > forwardTimeout+slowLatency/4 {
		t.Errorf("send to the slow child failed after %v, want about the %v deadline", elapsed, forwardTimeout)
	}
	if !unreachable(err) {
		t.Errorf("deadline failure %v does not read as unreachable", err)
	}
	if !origin.isSuspect(slowAddr) {
		t.Error("the slow child was not marked suspect after missing its deadline")
	}
	// Forget the probe's verdict: the multicast must meet the slow child
	// in its table slot, not skip it as a known suspect.
	origin.clearSuspect(slowAddr)

	start = time.Now()
	msgID, err := origin.Multicast([]byte("one slow child"))
	if err != nil {
		t.Fatal(err)
	}
	elapsed = time.Since(start)

	// Far under the slow child's latency: the engine never waited it out.
	if elapsed >= slowLatency {
		t.Fatalf("multicast took %v, stalled on the slow child's %v latency", elapsed, slowLatency)
	}
	if elapsed > slowLatency/2 {
		t.Errorf("multicast took %v; want well under %v (per-child deadline %v)", elapsed, slowLatency/2, forwardTimeout)
	}
	for _, n := range c.live() {
		addr := n.Self().Addr
		got := c.deliveries(addr, msgID)
		if addr == slowAddr {
			continue // unreachable within any deadline; excluded
		}
		if got != 1 {
			t.Errorf("%s received %s %d times, want exactly once", addr, msgID, got)
		}
	}
	if repaired := sumStats(c.live(), func(s Stats) uint64 { return s.SegmentsRepaired }); repaired == 0 {
		t.Error("slow child's segment was never repaired")
	}
}

// TestRepairSegmentHandsOffOrphan exercises repairSegment directly: the
// planned child is stopped, and the orphan segment (child's successor
// onward) must be handed to a live node that then covers it.
func TestRepairSegmentHandsOffOrphan(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = chaosTweak
	c.grow(8, 4)

	byID := c.sortedByID()
	parent := byID[0]
	victim := byID[3]
	victim.Stop()

	msgID := "repair-test#1"
	parent.seen.Record(msgID)
	cp := childPlan{
		y:      victim.Self().ID,
		segEnd: c.space.Sub(parent.Self().ID, 1), // the whole rest of the ring
	}
	parent.repairSegment(context.Background(), msgID, parent.Self(), payloadRef{bytes: []byte("orphan")}, cp, victim.Self(), 0)

	if got := parent.Stats().SegmentsRepaired; got != 1 {
		t.Fatalf("SegmentsRepaired = %d, want 1", got)
	}
	for _, n := range c.live() {
		addr := n.Self().Addr
		want := 0
		// Only members inside the orphan segment (victim, segEnd] belong
		// to the handoff; the dead victim itself can receive nothing.
		if c.space.InOC(n.Self().ID, victim.Self().ID, cp.segEnd) {
			want = 1
		}
		if got := c.deliveries(addr, msgID); got != want {
			t.Errorf("%s received repaired segment %d times, want %d", addr, got, want)
		}
	}
}

// TestChaosNoGoroutineLeaks runs a crash scenario end to end, stops every
// node, and verifies the forwarding engine left no goroutines behind.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	before := goruntime.NumGoroutine()

	net := transport.NewNetwork(7)
	c := &cluster{
		t: t, net: net, space: spaceForTest(), mode: ModeCAMKoorde,
		tweak: chaosTweak,
		nodes: map[string]*Node{}, got: map[string]map[string]int{},
	}
	c.add("leak-0", 6, "")
	for i := 1; i < 10; i++ {
		c.add(fmt.Sprintf("leak-%d", i), 6, "leak-0")
		c.stabilizeAll(2)
	}
	c.converge(3)

	calls, _ := net.Stats()
	net.SetFaultPlan(&transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, At: calls, Addrs: []string{c.live()[4].Self().Addr}},
	}})
	if _, err := c.live()[0].Multicast([]byte("leak probe")); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.Stop()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if goruntime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
