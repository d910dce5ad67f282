package camcast

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collector records deliveries per member.
type collector struct {
	mu  sync.Mutex
	got map[string]map[string]int // addr -> msgID -> count
}

func newCollector() *collector {
	return &collector{got: make(map[string]map[string]int)}
}

func (c *collector) handler(addr string) func(Message) {
	return func(m Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.got[addr] == nil {
			c.got[addr] = make(map[string]int)
		}
		c.got[addr][m.ID]++
	}
}

func (c *collector) count(addr, msgID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[addr][msgID]
}

// buildGroup creates a network of n members with background maintenance
// disabled (tests drive Settle explicitly).
func buildGroup(t *testing.T, protocol Protocol, n, capacity int) (*Network, *collector, []string) {
	t.Helper()
	net := NewNetwork()
	t.Cleanup(net.Close)
	col := newCollector()
	addrs := make([]string, n)
	opts := func(addr string) Options {
		return Options{
			Protocol:  protocol,
			Capacity:  capacity,
			Stabilize: -1,
			Fix:       -1,
			OnDeliver: col.handler(addr),
		}
	}
	addrs[0] = "member-0"
	if _, err := net.Create(addrs[0], opts(addrs[0])); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		addrs[i] = fmt.Sprintf("member-%d", i)
		if _, err := net.Join(addrs[i], addrs[0], opts(addrs[i])); err != nil {
			t.Fatal(err)
		}
		net.Settle(1)
	}
	net.Settle(3)
	return net, col, addrs
}

func TestQuickstartFlow(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 10, 4)
	m, err := net.Member(addrs[3])
	if err != nil {
		t.Fatal(err)
	}
	msgID, err := m.MulticastContext(context.Background(), []byte("hello group"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if got := col.count(addr, msgID); got != 1 {
			t.Errorf("%s delivered %d times, want 1", addr, got)
		}
	}
}

func TestKoordeProtocolFlow(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMKoorde, 12, 5)
	m, _ := net.Member(addrs[7])
	msgID, err := m.MulticastContext(context.Background(), []byte("koorde"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if got := col.count(addr, msgID); got != 1 {
			t.Errorf("%s delivered %d times, want 1", addr, got)
		}
	}
}

func TestCapacityFromBandwidth(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	m, err := net.Create("a", Options{UploadKbps: 750, LinkKbps: 100, Stabilize: -1, Fix: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != 8 {
		t.Errorf("Capacity = %d, want ceil(750/100)=8", m.Capacity())
	}
}

func TestOptionValidation(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	if _, err := net.Create("a", Options{Protocol: Protocol(9)}); err == nil {
		t.Error("unknown protocol should fail")
	}
	if _, err := net.Create("a", Options{Protocol: CAMKoorde, Capacity: 3}); err == nil {
		t.Error("koorde capacity 3 should fail")
	}
	if _, err := net.Create("a", Options{Capacity: 1}); err == nil {
		t.Error("capacity 1 should fail")
	}
	if _, err := net.Create("a", Options{Bits: 99}); err == nil {
		t.Error("bits 99 should fail")
	}
	if _, err := net.Join("b", "", Options{}); err == nil {
		t.Error("join without bootstrap should fail")
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	if _, err := net.Create("a", Options{Stabilize: -1, Fix: -1}); err != nil {
		t.Fatal(err)
	}
	_, err := net.Join("a", "a", Options{Stabilize: -1, Fix: -1})
	if !errors.Is(err, ErrMemberExists) {
		t.Fatalf("err = %v, want ErrMemberExists", err)
	}
}

func TestMemberLookupAndList(t *testing.T) {
	net, _, addrs := buildGroup(t, CAMChord, 5, 4)
	if _, err := net.Member("ghost"); !errors.Is(err, ErrNoSuchMember) {
		t.Fatalf("err = %v", err)
	}
	if got := net.Members(); len(got) != len(addrs) {
		t.Fatalf("Members() = %d, want %d", len(got), len(addrs))
	}
}

func TestLeaveThenMulticast(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 8, 4)
	leaver, _ := net.Member(addrs[4])
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	net.Settle(3)
	src, _ := net.Member(addrs[0])
	msgID, err := src.MulticastContext(context.Background(), []byte("post-leave"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		want := 1
		if addr == addrs[4] {
			want = 0
		}
		if got := col.count(addr, msgID); got != want {
			t.Errorf("%s delivered %d times, want %d", addr, got, want)
		}
	}
}

func TestCrashThenMulticast(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 10, 4)
	victim, _ := net.Member(addrs[6])
	victim.Close()
	net.Settle(4)
	src, _ := net.Member(addrs[1])
	msgID, err := src.MulticastContext(context.Background(), []byte("post-crash"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if addr == addrs[6] {
			continue
		}
		if got := col.count(addr, msgID); got != 1 {
			t.Errorf("%s delivered %d times, want 1", addr, got)
		}
	}
}

func TestBackgroundMaintenanceConverges(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	mk := func(addr string) Options {
		return Options{
			Capacity:  4,
			Stabilize: time.Millisecond,
			Fix:       time.Millisecond,
			OnDeliver: col.handler(addr),
		}
	}
	if _, err := net.Create("a", mk("a")); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"b", "c", "d", "e"} {
		if _, err := net.Join(addr, "a", mk(addr)); err != nil {
			t.Fatal(err)
		}
	}

	// Poll until a multicast reaches all five members.
	deadline := time.Now().Add(5 * time.Second)
	for {
		src, _ := net.Member("c")
		msgID, err := src.MulticastContext(context.Background(), []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		all := true
		for _, addr := range []string{"a", "b", "c", "d", "e"} {
			if col.count(addr, msgID) != 1 {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background maintenance never converged to full delivery")
		}
	}
}

func TestProtocolString(t *testing.T) {
	if CAMChord.String() != "CAM-Chord" || CAMKoorde.String() != "CAM-Koorde" {
		t.Error("protocol strings wrong")
	}
	if Protocol(7).String() != "Protocol(7)" {
		t.Error("unknown protocol string wrong")
	}
}

func TestStatsExposed(t *testing.T) {
	net, _, addrs := buildGroup(t, CAMChord, 6, 4)
	src, _ := net.Member(addrs[2])
	if _, err := src.MulticastContext(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if src.Stats().Delivered == 0 {
		t.Error("source should count its own delivery")
	}
	if src.ID() > (1<<32)-1 {
		t.Error("ID outside default 32-bit space")
	}
	if src.Addr() != addrs[2] {
		t.Error("Addr wrong")
	}
}

func TestNetworkCloseStopsMembers(t *testing.T) {
	net := NewNetwork()
	m, err := net.Create("a", Options{Stabilize: time.Millisecond, Fix: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if _, err := m.MulticastContext(context.Background(), nil); err == nil {
		t.Error("multicast after Close should fail")
	}
	if _, err := net.Create("b", Options{}); err == nil {
		t.Error("create after Close should fail")
	}
	net.Close() // idempotent
}

func TestNetworkCounters(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 10, 4)

	src, _ := net.Member(addrs[2])
	msgID, err := src.MulticastContext(context.Background(), []byte("counted"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if got := col.count(addr, msgID); got != 1 {
			t.Fatalf("%s delivered %d times, want 1", addr, got)
		}
	}
	counters := net.CountersSnapshot()
	if counters.ForwardAcked == 0 {
		t.Error("clean multicast recorded no acked forwards")
	}
	if counters.ForwardLost != 0 {
		t.Errorf("clean multicast recorded %d lost segments", counters.ForwardLost)
	}

	// Crash a member without letting maintenance notice: the next
	// multicast must still reach every survivor, with the recovery fully
	// accounted (acks grew, nothing reported lost).
	before := counters.ForwardAcked
	victim, _ := net.Member(addrs[6])
	victim.Close()
	msgID, err = src.MulticastContext(context.Background(), []byte("after crash"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if addr == addrs[6] {
			continue
		}
		if got := col.count(addr, msgID); got != 1 {
			t.Errorf("survivor %s delivered %d times, want 1", addr, got)
		}
	}
	counters = net.CountersSnapshot()
	if counters.ForwardAcked <= before {
		t.Error("post-crash multicast recorded no new acked forwards")
	}
	if counters.ForwardLost != 0 {
		t.Errorf("crash recovery reported %d lost segments", counters.ForwardLost)
	}
}

func TestMemberForwardingStats(t *testing.T) {
	net, _, addrs := buildGroup(t, CAMChord, 8, 4)
	victim, _ := net.Member(addrs[5])
	victim.Close()
	src, _ := net.Member(addrs[0])
	if _, err := src.MulticastContext(context.Background(), []byte("stats probe")); err != nil {
		t.Fatal(err)
	}
	var agg Stats
	for _, addr := range addrs {
		m, err := net.Member(addr)
		if err != nil {
			continue // the crashed member is gone from the registry
		}
		s := m.Stats()
		agg.ChildrenAcked += s.ChildrenAcked
		agg.Retries += s.Retries
		agg.SegmentsRepaired += s.SegmentsRepaired
		agg.SegmentsLost += s.SegmentsLost
	}
	if agg.ChildrenAcked == 0 {
		t.Error("no acked children recorded in member stats")
	}
	if agg.SegmentsLost != 0 {
		t.Errorf("SegmentsLost = %d, want 0 (repair should cover a single crash)", agg.SegmentsLost)
	}
}

func TestListenTCPGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short runs")
	}
	var (
		mu  sync.Mutex
		got = map[string]map[string]int{}
	)
	opts := func(self *string) Options {
		return Options{
			Capacity:  4,
			Stabilize: -1,
			Fix:       -1,
			// Tight budgets so a failure would surface quickly.
			ForwardTimeout: 2 * time.Second,
			OnDeliver: func(m Message) {
				mu.Lock()
				defer mu.Unlock()
				if got[*self] == nil {
					got[*self] = map[string]int{}
				}
				got[*self][m.ID]++
			},
		}
	}

	var members []*Member
	var addrs []string
	for i := 0; i < 4; i++ {
		self := new(string)
		via := ""
		if i > 0 {
			via = members[0].Addr()
		}
		m, err := ListenTCP("127.0.0.1:0", via, opts(self), HostOptions{RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		*self = m.Addr()
		members = append(members, m)
		addrs = append(addrs, m.Addr())
		for r := 0; r < 3; r++ {
			for _, mm := range members {
				mm.StabilizeOnce()
			}
		}
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for r := 0; r < 3; r++ {
		for _, m := range members {
			m.StabilizeOnce()
			m.FixAll()
		}
	}

	msgID, err := members[2].MulticastContext(context.Background(), []byte("over real sockets"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, addr := range addrs {
		if got[addr][msgID] != 1 {
			t.Errorf("%s delivered %d times, want 1", addr, got[addr][msgID])
		}
	}
}
