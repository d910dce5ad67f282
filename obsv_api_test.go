package camcast

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"camcast/internal/obsv"
)

// TestNodeInterfaceUnifiesMembers drives an in-process member through the
// *Member methods that TCP members share (TestTCPMemberObservability drives
// them over sockets): one member type serves both transports.
func TestNodeInterfaceUnifiesMembers(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 6, 4)
	m, err := net.Member(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if m.Host() != nil || m.Group() != "default" {
		t.Errorf("in-process member host/group = %p/%q, want nil/default", m.Host(), m.Group())
	}
	m.StabilizeOnce()
	m.FixAll()
	if m.Addr() != addrs[1] {
		t.Errorf("Addr() = %q, want %q", m.Addr(), addrs[1])
	}
	if m.Capacity() != 4 {
		t.Errorf("Capacity() = %d, want 4", m.Capacity())
	}
	msgID, err := m.MulticastContext(context.Background(), []byte("one member type"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if got := col.count(addr, msgID); got != 1 {
			t.Errorf("%s delivered %d times, want 1", addr, got)
		}
	}
	ni := m.Neighbors()
	if ni.Addr != addrs[1] || ni.ID != m.ID() {
		t.Errorf("Neighbors() self = %+v, want addr %s id %d", ni, addrs[1], m.ID())
	}
	if len(ni.Successors) == 0 {
		t.Error("Neighbors() reports no successors in a 6-member group")
	}
	if m.Stats().Delivered == 0 {
		t.Error("Stats() shows no deliveries")
	}
	if got := m.Metrics().Counters[obsv.MetricDelivered]; got < uint64(len(addrs)) {
		t.Errorf("Metrics() runtime.delivered = %d, want >= %d", got, len(addrs))
	}
	rec := httptest.NewRecorder()
	m.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/camcast/neighbors", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), addrs[1]) {
		t.Errorf("DebugHandler neighbors: %d %s", rec.Code, rec.Body.String())
	}
}

// TestObserverSeesMemberEvents checks Options.Observer receives the
// member's own events — and only its own.
func TestObserverSeesMemberEvents(t *testing.T) {
	net := NewNetwork()
	defer net.Close()

	var mu sync.Mutex
	var events []Event
	base := Options{Capacity: 4, Stabilize: -1, Fix: -1}
	withObs := base
	withObs.Observer = func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	a, err := net.Create("a", withObs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join("b", "a", base); err != nil {
		t.Fatal(err)
	}
	net.Settle(3)
	if _, err := a.MulticastContext(context.Background(), []byte("observed")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		var delivered bool
		for _, e := range events {
			if e.Node != "a" {
				mu.Unlock()
				t.Fatalf("observer for %q received event at %q: %v", "a", e.Node, e)
			}
			if e.Kind == EventDeliver {
				delivered = true
			}
		}
		mu.Unlock()
		if delivered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("observer never saw the member's own delivery")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetworkObserveStop checks the group-wide stream sees every member's
// deliveries and that stop detaches the callback for good.
func TestNetworkObserveStop(t *testing.T) {
	net, _, addrs := buildGroup(t, CAMChord, 6, 4)

	var mu sync.Mutex
	deliveries := make(map[string]int)
	stop := net.Observe(func(e Event) {
		if e.Kind == EventDeliver {
			mu.Lock()
			deliveries[e.Node]++
			mu.Unlock()
		}
	})
	src, _ := net.Member(addrs[0])
	if _, err := src.MulticastContext(context.Background(), []byte("watched")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(deliveries)
		mu.Unlock()
		if n == len(addrs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observed deliveries at %d members, want %d", n, len(addrs))
		}
		time.Sleep(time.Millisecond)
	}

	stop()
	stop() // idempotent
	if _, err := src.MulticastContext(context.Background(), []byte("unwatched")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for addr, count := range deliveries {
		if count != 1 {
			t.Errorf("%s observed %d deliveries after stop, want 1", addr, count)
		}
	}
}

// TestMetricsAndCountersSnapshot cross-checks the three snapshot APIs: the
// typed CountersSnapshot, the deprecated map form, and the full registry
// snapshot.
func TestMetricsAndCountersSnapshot(t *testing.T) {
	net, col, addrs := buildGroup(t, CAMChord, 10, 4)
	src, _ := net.Member(addrs[2])
	msgID, err := src.MulticastContext(context.Background(), []byte("measured"))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if got := col.count(addr, msgID); got != 1 {
			t.Fatalf("%s delivered %d times, want 1", addr, got)
		}
	}

	typed := net.CountersSnapshot()
	if typed.ForwardAcked != uint64(len(addrs)-1) {
		t.Errorf("ForwardAcked = %d, want %d", typed.ForwardAcked, len(addrs)-1)
	}
	if typed.ForwardLost != 0 {
		t.Errorf("ForwardLost = %d, want 0", typed.ForwardLost)
	}

	snap := net.Metrics()
	if got := snap.Counters[obsv.MetricDelivered]; got != uint64(len(addrs)) {
		t.Errorf("%s = %d, want %d", obsv.MetricDelivered, got, len(addrs))
	}
	if got := snap.Counters[obsv.MetricForwardAcked]; got != typed.ForwardAcked {
		t.Errorf("%s = %d, want %d", obsv.MetricForwardAcked, got, typed.ForwardAcked)
	}
	if snap.Histograms[obsv.MetricMulticastTime].Count != 1 {
		t.Errorf("tree-time observations = %d, want 1", snap.Histograms[obsv.MetricMulticastTime].Count)
	}
	if snap.Histograms[obsv.MetricRPCLatency].Count == 0 {
		t.Error("instrumented in-process transport recorded no RPC latencies")
	}
}

// TestDebugHandlerHTTP mounts Network.DebugHandler on a test server and
// checks the JSON routes and pprof respond.
func TestDebugHandlerHTTP(t *testing.T) {
	net, _, addrs := buildGroup(t, CAMChord, 5, 4)
	src, _ := net.Member(addrs[0])
	if _, err := src.MulticastContext(context.Background(), []byte("debug me")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(net.DebugHandler())
	defer srv.Close()

	var stats struct {
		Metrics MetricsSnapshot  `json:"metrics"`
		Extra   CountersSnapshot `json:"extra"`
	}
	getJSON(t, srv.URL+"/debug/camcast/stats", &stats)
	if stats.Metrics.Counters[obsv.MetricDelivered] != uint64(len(addrs)) {
		t.Errorf("stats delivered = %d, want %d", stats.Metrics.Counters[obsv.MetricDelivered], len(addrs))
	}
	if stats.Extra.ForwardAcked != uint64(len(addrs)-1) {
		t.Errorf("stats extra acked = %d, want %d", stats.Extra.ForwardAcked, len(addrs)-1)
	}

	var neighbors []NeighborInfo
	getJSON(t, srv.URL+"/debug/camcast/neighbors", &neighbors)
	if len(neighbors) != len(addrs) {
		t.Fatalf("neighbors lists %d members, want %d", len(neighbors), len(addrs))
	}
	for i := 1; i < len(neighbors); i++ {
		if neighbors[i-1].ID > neighbors[i].ID {
			t.Fatal("neighbors not sorted by ring identifier")
		}
	}

	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d, want 200", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestContextMethods checks the cancellable variants: a canceled multicast
// is not accounted as loss, and a canceled request fails with the
// context's error.
func TestContextMethods(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	opts := Options{
		Capacity:  4,
		Stabilize: -1,
		Fix:       -1,
		OnRequest: func(from string, payload []byte) ([]byte, error) {
			return payload, nil
		},
	}
	a, err := net.Create("a", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Join("b", "a", opts)
	if err != nil {
		t.Fatal(err)
	}
	net.Settle(3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.MulticastContext(ctx, []byte("too late")); err != nil {
		t.Fatalf("canceled multicast returned error: %v", err)
	}
	if lost := a.Stats().SegmentsLost; lost != 0 {
		t.Errorf("canceled multicast accounted %d lost segments", lost)
	}

	if _, err := b.RequestContext(ctx, "a", []byte("ping")); err == nil {
		t.Error("request under a canceled context succeeded")
	}
	reply, err := b.RequestContext(context.Background(), "a", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ping" {
		t.Errorf("reply = %q, want %q", reply, "ping")
	}
}

// TestTCPMemberObservability boots a two-member TCP group and checks the
// per-member registry, debug handler, and observer all see real socket
// traffic.
func TestTCPMemberObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short runs")
	}
	var mu sync.Mutex
	delivered := make(map[string]int)
	var kinds []EventKind
	opts := func(self *string, observe bool) Options {
		o := Options{
			Capacity:  4,
			Stabilize: -1,
			Fix:       -1,
			OnDeliver: func(m Message) {
				mu.Lock()
				delivered[*self]++
				mu.Unlock()
			},
		}
		if observe {
			o.Observer = func(e Event) {
				mu.Lock()
				kinds = append(kinds, e.Kind)
				mu.Unlock()
			}
		}
		return o
	}

	selfA := new(string)
	a, err := ListenTCP("127.0.0.1:0", "", opts(selfA, true), HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	*selfA = a.Addr()
	selfB := new(string)
	b, err := ListenTCP("127.0.0.1:0", a.Addr(), opts(selfB, false), HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	*selfB = b.Addr()
	for r := 0; r < 3; r++ {
		a.StabilizeOnce()
		b.StabilizeOnce()
		a.FixAll()
		b.FixAll()
	}

	if a.Host() == nil {
		t.Error("ListenTCP member reports no host")
	}
	if _, err := a.MulticastContext(context.Background(), []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := delivered[a.Addr()] == 1 && delivered[b.Addr()] == 1
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries = %v, want 1 at each member", delivered)
		}
		time.Sleep(time.Millisecond)
	}

	snap := a.Metrics()
	if snap.Counters[obsv.MetricDelivered] != 1 {
		t.Errorf("member a delivered counter = %d, want 1", snap.Counters[obsv.MetricDelivered])
	}
	if snap.Counters[obsv.MetricRPCCalls] == 0 {
		t.Error("member a's transport recorded no RPC calls")
	}
	if snap.Histograms[obsv.MetricRPCLatency].Count == 0 {
		t.Error("member a's transport recorded no RPC latencies")
	}

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()
	var neighbors []NeighborInfo
	getJSON(t, srv.URL+"/debug/camcast/neighbors", &neighbors)
	if len(neighbors) != 1 || neighbors[0].Addr != a.Addr() {
		t.Errorf("TCP member debug neighbors = %+v, want self only", neighbors)
	}

	deadline = time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		var sawDeliver bool
		for _, k := range kinds {
			if k == EventDeliver {
				sawDeliver = true
			}
		}
		mu.Unlock()
		if sawDeliver {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TCP member observer never saw its delivery")
		}
		time.Sleep(time.Millisecond)
	}
}
