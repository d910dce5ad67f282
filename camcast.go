// Package camcast is a capacity-aware overlay multicast library implementing
// the two systems of "Resilient Capacity-Aware Multicast Based on Overlay
// Networks" (Zhang, Chen, Ling, Chow — ICDCS 2005): CAM-Chord and
// CAM-Koorde.
//
// Every group member declares a capacity c — the maximum number of direct
// children it is willing to forward multicast traffic to, typically derived
// from its upload bandwidth. The library builds a dedicated structured
// overlay per multicast group and disseminates every message along an
// implicit, roughly balanced, degree-varying tree rooted at the sender: no
// explicit tree state exists anywhere, any member can send, members may join
// and leave freely, and no member ever forwards to more children than its
// capacity allows.
//
// # Quick start
//
//	net := camcast.NewNetwork()
//	defer net.Close()
//
//	alice, _ := net.Create("alice", camcast.Options{
//		Capacity:  6,
//		OnDeliver: func(m camcast.Message) { fmt.Printf("%s got %q\n", "alice", m.Payload) },
//	})
//	bob, _ := net.Join("bob", "alice", camcast.Options{Capacity: 4, OnDeliver: ...})
//
//	net.Settle()                      // let maintenance converge
//	_, _ = bob.MulticastContext(ctx, []byte("hi")) // any member can send
//
// Network here is an in-process simulated transport (internal/transport)
// with injectable latency, loss and partitions; the protocol code in
// internal/runtime is transport-agnostic.
//
// # Groups
//
// A Network hosts any number of named multicast groups, each an isolated
// overlay with its own members, forwarding counters, and compact wire
// flow label. Create and Join operate on the always-present default
// group; CreateGroup/JoinGroup return *Group handles for tenant-style
// multi-group use, optionally protected by a token:
//
//	tenant, _ := net.CreateGroup("tenant-7", camcast.GroupOptions{Token: "s3cret"})
//	root, _ := tenant.Create("t7-root", camcast.Options{Capacity: 6})
//
// TCP members of many groups can share one process, one listener, and —
// because every frame carries its group's flow label — one TCP
// connection per peer pair: see TCPHost and Group.ListenOn. The same
// lifecycle is scriptable over HTTP at /debug/camcast/groups (see
// Network.DebugHandler).
//
// For the paper's large-scale measurements (100,000-node trees, the
// Figure 6-11 experiment suite) see the static simulator under
// internal/experiments and the cmd/camfigs and cmd/camsim commands.
package camcast

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/transport"
)

// Protocol selects which CAM system a member speaks. All members of one
// group must use the same protocol.
type Protocol int

// Supported protocols.
const (
	// CAMChord extends Chord with capacity-dependent neighbor sets and
	// segment-splitting multicast (paper Section 3). Best for small node
	// capacities and moderate churn.
	CAMChord Protocol = iota + 1
	// CAMKoorde embeds a de Bruijn-style graph with exactly c neighbors
	// per node and flooding multicast with duplicate suppression (paper
	// Section 4). Best for large node capacities and heavy churn.
	CAMKoorde
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case CAMChord:
		return "CAM-Chord"
	case CAMKoorde:
		return "CAM-Koorde"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Message is one multicast delivery handed to the application.
//
// Payload is borrowed from the network layer: on the zero-copy path it
// aliases a pooled receive buffer that is reused for other traffic as soon
// as the OnDeliver callback returns. Use it freely during the callback;
// copy it (bytes.Clone) if the application keeps it longer.
type Message struct {
	ID      string // globally unique message identifier
	From    string // address of the originating member
	Payload []byte
	Hops    int // overlay hops travelled from the source
}

// Stats are cumulative per-member protocol counters.
type Stats = runtime.Stats

// Event is one protocol event published on a group's live event stream —
// joins, leaves, forwards, repairs, deliveries. See Options.Observer,
// Network.Observe, and the /debug/camcast/events endpoint.
type Event = obsv.Event

// EventKind classifies an Event.
type EventKind = obsv.Kind

// Event kinds.
const (
	EventJoin      = obsv.KindJoin
	EventLeave     = obsv.KindLeave
	EventDeliver   = obsv.KindDeliver
	EventForward   = obsv.KindForward
	EventDuplicate = obsv.KindDuplicate
	EventRepair    = obsv.KindRepair
	EventLookup    = obsv.KindLookup
	EventRetry     = obsv.KindRetry
	EventLost      = obsv.KindLost
)

// MetricsSnapshot is a point-in-time copy of a group's metrics registry:
// counters, gauges, and histogram summaries keyed by metric name (for
// example "transport.rpc.latency_seconds" or "runtime.forward.acked").
type MetricsSnapshot = obsv.Snapshot

// NeighborInfo is one member's view of its ring neighborhood, as served
// by the /debug/camcast/neighbors endpoint.
type NeighborInfo struct {
	Addr        string   `json:"addr"`
	ID          uint64   `json:"id"`
	Capacity    int      `json:"capacity"`
	Group       string   `json:"group,omitempty"` // set in multi-group aggregates; empty for the default group
	Predecessor string   `json:"predecessor,omitempty"`
	Successors  []string `json:"successors"`
}

func neighborInfo(node *runtime.Node) NeighborInfo {
	self := node.Self()
	ni := NeighborInfo{Addr: self.Addr, ID: self.ID, Capacity: node.Capacity()}
	if pred, ok := node.Predecessor(); ok {
		ni.Predecessor = pred.Addr
	}
	succs := node.SuccessorList()
	ni.Successors = make([]string, 0, len(succs))
	for _, s := range succs {
		ni.Successors = append(ni.Successors, s.Addr)
	}
	return ni
}

// observe subscribes fn to bus, filtered to events emitted at node addr
// ("" keeps everything), and drains on a dedicated goroutine so the
// protocol's emit path never blocks on the callback. The returned stop
// function detaches fn, waits for the drain goroutine to finish, and
// credits any events a slow fn missed to the registry's
// "runtime.events.subscriber_drops" counter.
func observe(bus *obsv.Bus, reg *obsv.Registry, addr string, fn func(Event)) (stop func()) {
	sub := bus.Subscribe(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			e, ok := sub.Next()
			if !ok {
				return
			}
			if addr == "" || e.Node == addr {
				fn(e)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			sub.Close()
			<-done
			if d := sub.Dropped(); d > 0 {
				reg.Counter(obsv.MetricEventsDropped).Add(d)
			}
		})
	}
}

// Options configures a member.
type Options struct {
	// Protocol defaults to CAMChord.
	Protocol Protocol
	// Capacity is c_x, the maximum number of direct multicast children
	// (>= 2 for CAMChord, >= 4 for CAMKoorde). If zero it is derived from
	// UploadKbps/LinkKbps, or defaults to 8.
	Capacity int
	// UploadKbps and LinkKbps derive Capacity = ceil(UploadKbps/LinkKbps)
	// when Capacity is zero, mirroring the paper's c_x = ceil(B_x/p).
	UploadKbps float64
	LinkKbps   float64
	// Bits is the identifier-space width (default 32).
	Bits uint
	// OnDeliver receives every multicast message, including the member's
	// own. Called synchronously from protocol goroutines; keep it fast.
	// The Message's Payload is only valid for the duration of the call —
	// copy it to retain it (see Message).
	OnDeliver func(Message)
	// OnRequest serves unicast requests other members send with
	// Member.RequestContext — the escape hatch layers like reliable
	// delivery use for retransmission. nil rejects such requests.
	OnRequest func(from string, payload []byte) ([]byte, error)
	// Stabilize and Fix set the member's cadence on its host's maintenance
	// scheduler, which also sweeps the member's duplicate-suppression
	// window once a minute. Zero means the default (20ms) on either
	// transport. Negative runs no background round of that kind; drive it
	// explicitly with Group.Settle or Network.Settle.
	Stabilize time.Duration
	Fix       time.Duration

	// ForwardRetries is how many times a failed child send is retried
	// (re-resolving the child between attempts) before the orphaned
	// segment is repaired or reported lost. Zero means the default (2);
	// negative disables retries.
	ForwardRetries int
	// ForwardTimeout is the per-child send deadline during multicast
	// fan-out. Zero means the default (2s); negative disables deadlines.
	ForwardTimeout time.Duration
	// ForwardParallel bounds concurrent in-flight child sends per
	// fan-out. Zero means the default (8); negative serializes sends.
	ForwardParallel int
	// RetryBackoff is the delay before the first retry; each further
	// retry doubles it, with jitter. Zero means the default (5ms);
	// negative disables backoff.
	RetryBackoff time.Duration

	// SuspicionWindow tunes the member's failure detector, the same on
	// every transport: how long a peer stays suspect after one of the
	// member's own calls to it could not reach it (unreachable,
	// partitioned, or timed out), unless the peer answers first. Suspects
	// are skipped as routing detours and re-resolved as forwarding
	// children; a ring pointer is dropped only when a call to its peer
	// fails. Zero or negative keeps the default (1s).
	SuspicionWindow time.Duration

	// Observer, if set, receives this member's protocol events (joins,
	// forwards, repairs, deliveries) as they happen. Delivery is
	// asynchronous through a bounded ring drained by a dedicated
	// goroutine: a slow Observer misses events rather than stalling the
	// protocol, and the misses are counted in the
	// "runtime.events.subscriber_drops" metric. The observer detaches
	// when the member leaves, crashes, or its network closes.
	Observer func(Event)
}

// ErrMemberExists reports a Create/Join with an address already in use.
var ErrMemberExists = errors.New("camcast: member address already in use")

// ErrNoSuchMember reports an operation on an unknown member address.
var ErrNoSuchMember = errors.New("camcast: no such member")

const (
	defaultBits      = 32
	defaultCapacity  = 8
	defaultStabilize = 20 * time.Millisecond
	defaultFix       = 20 * time.Millisecond
)

// Network is an in-process multicast fabric: a simulated transport plus
// the groups — and their members — running on it. A fresh Network has one
// open group named "default" that Create/Join/Member/Members operate on;
// CreateGroup adds further isolated groups multiplexed over the same
// transport. It is safe for concurrent use.
type Network struct {
	*host
	tr  *transport.Network
	def *Group // the always-present "default" group, flow label 0

	gmu    sync.Mutex
	groups map[string]*Group // by name
	labels map[uint64]*Group // by flow label, to reject hash collisions
}

// NewNetwork creates an empty in-process network with its default group.
func NewNetwork() *Network {
	tr := transport.NewNetwork(1)
	n := &Network{
		host:   newHost(tr),
		tr:     tr,
		groups: make(map[string]*Group),
		labels: make(map[uint64]*Group),
	}
	n.def = newGroup(n.host, "default", transport.DefaultGroup, "")
	n.groups["default"] = n.def
	n.labels[transport.DefaultGroup] = n.def
	return n
}

// Transport exposes the underlying simulated transport for fault injection
// (latency, loss, partitions, fault plans).
func (n *Network) Transport() *transport.Network { return n.tr }

// CountersSnapshot is a forwarding-outcome tally: per group from
// Group.CountersSnapshot, network-wide (summed over every group) from
// Network.CountersSnapshot.
type CountersSnapshot struct {
	ForwardAcked    uint64 `json:"forward_acked"`    // child sends acknowledged
	ForwardRetries  uint64 `json:"forward_retries"`  // send retries after a failure
	ForwardRepaired uint64 `json:"forward_repaired"` // orphan segments handed to a live node
	ForwardLost     uint64 `json:"forward_lost"`     // segments abandoned after repair failed
}

// CountersSnapshot returns the forwarding-outcome counters summed across
// every group of the network.
func (n *Network) CountersSnapshot() CountersSnapshot {
	var total CountersSnapshot
	for _, g := range n.groupSnapshot() {
		snap := g.CountersSnapshot()
		total.ForwardAcked += snap.ForwardAcked
		total.ForwardRetries += snap.ForwardRetries
		total.ForwardRepaired += snap.ForwardRepaired
		total.ForwardLost += snap.ForwardLost
	}
	return total
}

// Metrics returns a point-in-time snapshot of the group's metrics
// registry: RPC latencies and in-flight counts, flush batch sizes,
// forward outcomes, lookup hop counts, and multicast tree timings.
func (n *Network) Metrics() MetricsSnapshot { return n.reg.Snapshot() }

// Observe attaches fn to the group's live event stream — every member's
// events, in emit order — and returns a function that detaches it. A slow
// fn misses events rather than stalling the protocol; see
// Options.Observer for per-member subscriptions.
func (n *Network) Observe(fn func(Event)) (stop func()) {
	return observe(n.bus, n.reg, "", fn)
}

// Neighbors reports every live member's ring neighborhood across all
// groups, sorted by ring identifier. Members outside the default group
// carry their group's name in NeighborInfo.Group.
func (n *Network) Neighbors() []NeighborInfo {
	var members []*Member
	for _, g := range n.groupSnapshot() {
		members = append(members, g.snapshot()...)
	}
	return neighborsOf(members)
}

// Create starts the first member of the default group at addr; see
// Group.Create for named groups.
func (n *Network) Create(addr string, opts Options) (*Member, error) {
	return n.def.Create(addr, opts)
}

// Join adds a member of the default group at addr, entering through the
// existing member at via; see Group.Join for named groups.
func (n *Network) Join(addr, via string, opts Options) (*Member, error) {
	return n.def.Join(addr, via, opts)
}

// Member returns the default group's live member at addr.
func (n *Network) Member(addr string) (*Member, error) {
	return n.def.Member(addr)
}

// Members returns the addresses of the default group's live members,
// unordered.
func (n *Network) Members() []string {
	return n.def.Members()
}

// Settle drives maintenance to convergence synchronously: the given number
// of global stabilize rounds, each followed by a full routing-table refresh
// at every member of every group. Tests and batch tools call this instead
// of sleeping.
func (n *Network) Settle(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, g := range n.groupSnapshot() {
			g.Settle(1)
		}
	}
}

func (n *Network) groupSnapshot() []*Group {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	out := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		out = append(out, g)
	}
	return out
}

// Close stops every in-process member of every group and shuts the
// network down. TCP members stop with their TCPHost.
func (n *Network) Close() { n.close() }

// Member is one live group member: in-process on a Network (Create, Join)
// or on a real TCP socket, exactly as a separate process or host would run
// it (ListenTCP, Group.Listen, Group.ListenOn). Every method behaves the
// same for both.
type Member struct {
	node    *runtime.Node
	group   *Group
	host    *host    // the Network's or TCPHost's
	tcp     *TCPHost // nil for in-process members
	owns    bool     // closing the member closes tcp (ListenTCP, Group.Listen)
	stopObs func()   // detaches Options.Observer; nil when unset
}

// start builds the member's node on tr and bootstraps the group's overlay
// (via == "") or joins it through via. The Observer is subscribed before
// the node exists so it sees the join itself. On error nothing is left
// running.
func (m *Member) start(tr runtime.Transport, addr, via string, cfg runtime.Config, opts Options) error {
	cfg.OnDeliver = func(d runtime.Delivery) {
		if opts.OnDeliver != nil {
			opts.OnDeliver(Message{ID: d.MsgID, From: d.Source.Addr, Payload: d.Payload, Hops: d.Hops})
		}
	}
	cfg.OnRequest = opts.OnRequest
	cfg.Bus = m.host.bus
	cfg.Metrics = m.host.reg
	if opts.Observer != nil {
		m.stopObs = observe(m.host.bus, m.host.reg, addr, opts.Observer)
	}
	node, err := runtime.NewNode(tr, addr, cfg)
	if err == nil {
		m.node = node
		if via == "" {
			err = node.Bootstrap()
		} else {
			err = node.Join(via)
		}
		if err != nil {
			node.Stop()
		}
	}
	if err != nil {
		m.stopObserver()
	}
	return err
}

// stop halts the node, once its maintenance round in flight is done, and
// detaches the Observer without detaching the member from its group or
// host.
func (m *Member) stop() {
	m.host.sched.Remove(m.node)
	m.node.Stop()
	m.stopObserver()
}

func (m *Member) stopObserver() {
	if m.stopObs != nil {
		m.stopObs()
	}
}

// Addr returns the member's transport address — for a TCP member its bound
// "host:port", what other members of the same group pass as via.
func (m *Member) Addr() string { return m.node.Self().Addr }

// ID returns the member's ring identifier.
func (m *Member) ID() uint64 { return m.node.Self().ID }

// Capacity returns the member's multicast capacity c_x.
func (m *Member) Capacity() int { return m.node.Capacity() }

// Group returns the name of the group the member belongs to ("default"
// for members started with Network.Create/Join or ListenTCP).
func (m *Member) Group() string { return m.group.name }

// Host returns the TCPHost carrying the member, or nil for an in-process
// member.
func (m *Member) Host() *TCPHost { return m.tcp }

// MulticastContext sends payload to every group member (including this
// one) and returns the message ID. Cancellation abandons outstanding child
// sends without counting them as losses or triggering repair — the caller
// gave up, the group did not fail.
func (m *Member) MulticastContext(ctx context.Context, payload []byte) (string, error) {
	return m.node.MulticastContext(ctx, payload)
}

// RequestContext sends a unicast request to the member at addr and returns
// its response; the remote member must have configured Options.OnRequest.
// The context bounds or cancels the round-trip.
func (m *Member) RequestContext(ctx context.Context, addr string, payload []byte) ([]byte, error) {
	return m.node.RequestContext(ctx, addr, payload)
}

// Stats returns a snapshot of the member's protocol counters.
func (m *Member) Stats() Stats { return m.node.Stats() }

// Metrics returns a snapshot of the registry the member reports into: its
// Network's for an in-process member, its host's for a TCP member (which
// adds the TCP transport's RPC latency, in-flight calls and flush batch
// sizes). Either way it also covers the members sharing that registry.
func (m *Member) Metrics() MetricsSnapshot { return m.host.reg.Snapshot() }

// Neighbors reports the member's current ring neighborhood.
func (m *Member) Neighbors() NeighborInfo { return neighborInfo(m.node) }

// Observe attaches fn to this member's events only and returns a function
// that detaches it; see Network.Observe for a whole network's stream.
func (m *Member) Observe(fn func(Event)) (stop func()) {
	return observe(m.host.bus, m.host.reg, m.Addr(), fn)
}

// DebugHandler returns the member's live debug surface —
// /debug/camcast/{stats,neighbors,events} plus net/http/pprof — ready to
// mount on an HTTP server. Stats and events cover the registry and bus the
// member shares (see Metrics); neighbors are the member's own.
func (m *Member) DebugHandler() http.Handler {
	return obsv.Debug{
		Registry:  m.host.reg,
		Bus:       m.host.bus,
		Neighbors: func() any { return []NeighborInfo{m.Neighbors()} },
		Extra:     func() any { return m.Stats() },
	}.Handler()
}

// StabilizeOnce drives one stabilization round explicitly, for members
// whose background maintenance is disabled (negative Options.Stabilize).
func (m *Member) StabilizeOnce() { m.node.StabilizeOnce() }

// FixAll refreshes the member's entire routing table in one pass.
func (m *Member) FixAll() { m.node.FixAll() }

// Leave departs gracefully, telling ring neighbors to splice the member
// out, and detaches it from its group and host.
func (m *Member) Leave() error {
	m.host.sched.Remove(m.node)
	err := m.node.Leave()
	m.stopObserver()
	m.detach()
	return err
}

// Close stops the member abruptly, without any notification — peers see a
// crash, as a real failure would — and detaches it. A member that owns its
// host (ListenTCP, Group.Listen) also releases the host's transport. Safe
// to call multiple times.
func (m *Member) Close() {
	m.stop()
	m.detach()
}

func buildConfig(opts Options) (runtime.Config, error) {
	bits := opts.Bits
	if bits == 0 {
		bits = defaultBits
	}
	space, err := ring.NewSpace(bits)
	if err != nil {
		return runtime.Config{}, err
	}

	capacity := opts.Capacity
	if capacity == 0 && opts.UploadKbps > 0 && opts.LinkKbps > 0 {
		capacity = int(math.Ceil(opts.UploadKbps / opts.LinkKbps))
	}
	if capacity == 0 {
		capacity = defaultCapacity
	}

	var mode runtime.Mode
	switch opts.Protocol {
	case CAMChord, 0:
		mode = runtime.ModeCAMChord
	case CAMKoorde:
		mode = runtime.ModeCAMKoorde
	default:
		return runtime.Config{}, fmt.Errorf("camcast: unknown protocol %v", opts.Protocol)
	}
	if mode == runtime.ModeCAMKoorde && capacity < 4 {
		return runtime.Config{}, fmt.Errorf("camcast: CAM-Koorde needs capacity >= 4, got %d", capacity)
	}
	if capacity < 2 {
		return runtime.Config{}, fmt.Errorf("camcast: capacity %d must be >= 2", capacity)
	}

	stabilize, fix := opts.Stabilize, opts.Fix
	if stabilize == 0 {
		stabilize = defaultStabilize
	}
	if fix == 0 {
		fix = defaultFix
	}

	return runtime.Config{
		Space:           space,
		Mode:            mode,
		Capacity:        capacity,
		StabilizeEvery:  stabilize,
		FixEvery:        fix,
		ForwardRetries:  opts.ForwardRetries,
		ForwardTimeout:  opts.ForwardTimeout,
		ForwardParallel: opts.ForwardParallel,
		RetryBackoff:    opts.RetryBackoff,
		SuspicionWindow: opts.SuspicionWindow,
	}, nil
}
