package camcast

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestNetworkCloseStopsRacingAdds checks that Close leaves nothing running:
// a Create or Join that races it either fails or returns a member that
// Close has stopped.
func TestNetworkCloseStopsRacingAdds(t *testing.T) {
	const trials, adders = 300, 8
	for trial := 0; trial < trials; trial++ {
		net := NewNetwork()
		if _, err := net.Create("boot", Options{Capacity: 4, Stabilize: -1, Fix: -1}); err != nil {
			t.Fatal(err)
		}
		var (
			mu      sync.Mutex
			started []*Member
			wg      sync.WaitGroup
			begin   = make(chan struct{})
		)
		for i := 0; i < adders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				addr, opts := fmt.Sprintf("m%d", i), Options{Capacity: 4, Stabilize: -1, Fix: -1}
				var m *Member
				var err error
				if i%2 == 0 {
					m, err = net.Create(addr, opts)
				} else {
					m, err = net.Join(addr, "boot", opts)
				}
				if err == nil {
					mu.Lock()
					started = append(started, m)
					mu.Unlock()
				}
			}()
		}
		close(begin)
		// Vary Close's moment so that it lands before, during and
		// after the adds' node starts.
		time.Sleep(time.Duration(trial%30) * 5 * time.Microsecond)
		net.Close()
		wg.Wait()
		for _, m := range started {
			if !m.node.Stopped() {
				t.Fatalf("trial %d: member %s returned by an add racing Close is still running", trial, m.Addr())
			}
		}
	}
}

// TestConcurrentAddsOneAddress checks that adds racing for one address
// leave exactly one member, reachable: a loser never starts a node over
// the winner's transport endpoint and then unregisters it.
func TestConcurrentAddsOneAddress(t *testing.T) {
	const trials, adders = 100, 4
	opts := Options{Capacity: 4, Stabilize: -1, Fix: -1}
	for trial := 0; trial < trials; trial++ {
		net := NewNetwork()
		var (
			wg      sync.WaitGroup
			begin   = make(chan struct{})
			mu      sync.Mutex
			winners int
		)
		for i := 0; i < adders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				_, err := net.Create("a", opts)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					winners++
				case !errors.Is(err, ErrMemberExists):
					t.Errorf("trial %d: losing add: err = %v, want ErrMemberExists", trial, err)
				}
			}()
		}
		close(begin)
		wg.Wait()
		if winners != 1 {
			t.Fatalf("trial %d: %d adds at one address succeeded, want 1", trial, winners)
		}
		if _, err := net.Join("b", "a", opts); err != nil {
			t.Fatalf("trial %d: join through the surviving member: %v", trial, err)
		}
		net.Close()
	}
}

// tcpGroupOf starts n members of group name, each on its own TCPHost and
// all joining through the first, and converges the group's ring.
func tcpGroupOf(t *testing.T, net *Network, name string, n int) (*Group, []*TCPHost, []*Member) {
	t.Helper()
	g, err := net.CreateGroup(name, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*TCPHost, n)
	members := make([]*Member, n)
	for i := range hosts {
		h, err := NewTCPHost("127.0.0.1:0", HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		via := ""
		if i > 0 {
			via = hosts[0].Addr()
		}
		m, err := g.ListenOn(h, via, Options{Capacity: 4, Stabilize: -1, Fix: -1})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i], members[i] = h, m
		g.Settle(2)
	}
	g.Settle(3)
	return g, hosts, members
}

// TestGroupSeesTCPMembers checks that a group's views cover the members it
// has on TCP hosts: its member table, its counters and its neighbours.
func TestGroupSeesTCPMembers(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	g, _, members := tcpGroupOf(t, net, "tcp-visible", 3)

	want := make([]string, len(members))
	for i, m := range members {
		want[i] = m.Addr()
		if got, err := g.Member(m.Addr()); err != nil || got != m {
			t.Errorf("Member(%s) = %p, %v; want the ListenOn member", m.Addr(), got, err)
		}
	}
	sort.Strings(want)
	info := g.Describe()
	if info.MemberCount != len(members) || fmt.Sprint(info.Members) != fmt.Sprint(want) {
		t.Errorf("Describe: %d members %v, want %d members %v", info.MemberCount, info.Members, len(members), want)
	}
	if got := len(g.Neighbors()); got != len(members) {
		t.Errorf("Neighbors lists %d members, want %d", got, len(members))
	}

	if _, err := members[1].MulticastContext(context.Background(), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for _, m := range members {
		acked += m.Stats().ChildrenAcked
	}
	if acked == 0 {
		t.Fatal("the TCP members acked no child sends")
	}
	if got := g.CountersSnapshot().ForwardAcked; got != acked {
		t.Errorf("group counters show %d acked forwards, its members acked %d", got, acked)
	}
	if got := net.CountersSnapshot().ForwardAcked; got != acked {
		t.Errorf("network counters show %d acked forwards, the group's members acked %d", got, acked)
	}
}

// inHost reports whether m is in h's set of members to stop on Close.
func inHost(h *host, m *Member) bool {
	for _, hm := range h.snapshot() {
		if hm == m {
			return true
		}
	}
	return false
}

// TestMemberRegistryConsistency checks the one table per group and the
// host's set against each way a member goes, in a group that has both
// in-process and TCP members. (The in-process member runs its own ring:
// the two transports do not reach each other.)
func TestMemberRegistryConsistency(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	g, hosts, tcp := tcpGroupOf(t, net, "mixed", 3)
	opts := Options{Capacity: 4, Stabilize: -1, Fix: -1}
	local, err := g.Create("local", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create("local", opts); !errors.Is(err, ErrMemberExists) {
		t.Errorf("second in-process member at one address: err = %v, want ErrMemberExists", err)
	}
	if _, err := g.ListenOn(hosts[1], "", opts); !errors.Is(err, ErrMemberExists) {
		t.Errorf("second member of one group on one host: err = %v, want ErrMemberExists", err)
	}
	if got := g.Describe().MemberCount; got != 4 {
		t.Fatalf("group has %d members, want 3 TCP + 1 in-process", got)
	}

	gone := func(how string, m *Member, h *host) {
		t.Helper()
		if _, err := g.Member(m.Addr()); !errors.Is(err, ErrNoSuchMember) {
			t.Errorf("after %s, Member(%s): err = %v, want ErrNoSuchMember", how, m.Addr(), err)
		}
		if inHost(h, m) {
			t.Errorf("after %s, %s is still in its host's set", how, m.Addr())
		}
	}
	if err := local.Leave(); err != nil {
		t.Fatal(err)
	}
	gone("Leave", local, net.host)
	tcp[1].Close()
	gone("Member.Close", tcp[1], hosts[1].host)
	hosts[2].Close()
	gone("TCPHost.Close", tcp[2], hosts[2].host)
	if got := g.Describe().MemberCount; got != 1 {
		t.Errorf("group has %d members after three departures, want 1", got)
	}

	// A member closed and re-added at the same address keeps its place
	// when the old member's Close runs again late.
	again, err := g.ListenOn(hosts[1], "", opts)
	if err != nil {
		t.Fatal(err)
	}
	relocal, err := g.Create("local", opts)
	if err != nil {
		t.Fatal(err)
	}
	tcp[1].Close()
	local.Close()
	for _, c := range []struct {
		m *Member
		h *host
	}{{again, hosts[1].host}, {relocal, net.host}} {
		if got, err := g.Member(c.m.Addr()); err != nil || got != c.m {
			t.Errorf("re-added member at %s lost its group entry to the old member's Close: %p, %v", c.m.Addr(), got, err)
		}
		if !inHost(c.h, c.m) {
			t.Errorf("re-added member at %s lost its host entry to the old member's Close", c.m.Addr())
		}
	}
}
