package camcast

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
	"sync"

	"camcast/internal/metrics"
	"camcast/internal/transport"
)

// ErrGroupExists reports a CreateGroup with a name already in use.
var ErrGroupExists = errors.New("camcast: group already exists")

// ErrNoSuchGroup reports an operation on an unknown group name.
var ErrNoSuchGroup = errors.New("camcast: no such group")

// ErrBadToken reports a join or describe with a wrong group token.
var ErrBadToken = errors.New("camcast: group token mismatch")

// GroupOptions configure a group at creation.
type GroupOptions struct {
	// Token protects the group: JoinGroup and the HTTP control plane must
	// present it to obtain the group's handle or inspect its members.
	// Empty leaves the group open. The token gates the control plane only —
	// it is a capability for acquiring a *Group handle, not a wire-level
	// credential (see DESIGN.md §13).
	Token string
}

// GroupInfo is one group's control-plane summary, as returned by
// Network.Groups and Group.Describe and served at /debug/camcast/groups.
type GroupInfo struct {
	// Name is the group's unique name within its Network.
	Name string `json:"name"`
	// Flow is the group's compact wire flow label: the uvarint tag every
	// frame of this group's traffic carries so thousands of groups can
	// share one TCP connection per peer pair. 0 is the default group.
	Flow uint64 `json:"flow"`
	// Protected reports whether a token is required to join or describe.
	Protected bool `json:"protected"`
	// MemberCount is the number of the group's live members in this
	// process, in-process and TCP alike.
	MemberCount int `json:"member_count"`
	// Members lists those members' addresses. Only Describe fills it;
	// group listings omit it.
	Members []string `json:"members,omitempty"`
	// Counters is the group's forwarding-outcome tally.
	Counters CountersSnapshot `json:"counters"`
}

// Group is one named multicast group hosted by a Network: an isolated
// overlay with its own members, forwarding counters, and wire flow label.
// Every frame a group's members exchange carries the flow label, so any
// number of groups multiplex over the same transport — and, for TCP
// members, over one connection per peer pair (see TCPHost).
//
// A *Group handle is a capability: CreateGroup returns it to the creator,
// JoinGroup returns it to callers presenting the group's token. Holding
// the handle authorizes adding and managing members.
//
// Members of different groups never interact even at the same transport
// address: endpoint registration, lookup, and multicast are all keyed by
// (flow label, address). The Network-wide event bus and metrics registry
// are shared across groups, except for the per-group forwarding counters
// and the transport's per-group "transport.group.*" metrics.
type Group struct {
	home     *host // the Network's, which Create and Join add members to
	name     string
	gid      uint64
	token    string
	counters *metrics.Counters

	mu      sync.Mutex
	members map[string]*Member // by address: every member in this process, on any host
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// FlowLabel returns the group's compact wire flow label (0 for the
// default group). The label is the FNV-1a hash of the name, computed
// identically on every process, so cooperating processes derive the same
// label from the same group name with no coordination.
func (g *Group) FlowLabel() uint64 { return g.gid }

// Protected reports whether the group requires a token.
func (g *Group) Protected() bool { return g.token != "" }

// checkToken compares in constant time so the control plane does not
// leak token prefixes through timing.
func (g *Group) checkToken(token string) bool {
	if g.token == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(g.token), []byte(token)) == 1
}

// Create starts the first member of this group's in-process overlay at addr.
func (g *Group) Create(addr string, opts Options) (*Member, error) {
	return g.add(&Member{host: g.home}, addr, "", opts)
}

// Join adds an in-process member at addr, entering the group's overlay
// through the existing member at via.
func (g *Group) Join(addr, via string, opts Options) (*Member, error) {
	if via == "" {
		return nil, fmt.Errorf("camcast: join requires a bootstrap address")
	}
	return g.add(&Member{host: g.home}, addr, via, opts)
}

// Member returns the group's live member at addr.
func (g *Group) Member(addr string) (*Member, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchMember, addr)
	}
	return m, nil
}

// Members returns the addresses of the group's live members, unordered.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for addr := range g.members {
		out = append(out, addr)
	}
	return out
}

// Describe returns the group's full control-plane state, including the
// member list.
func (g *Group) Describe() GroupInfo {
	info := g.summary()
	info.Members = g.Members()
	sort.Strings(info.Members)
	return info
}

// summary is Describe without the member list — what group listings show.
func (g *Group) summary() GroupInfo {
	g.mu.Lock()
	count := len(g.members)
	g.mu.Unlock()
	return GroupInfo{
		Name:        g.name,
		Flow:        g.gid,
		Protected:   g.token != "",
		MemberCount: count,
		Counters:    g.CountersSnapshot(),
	}
}

// CountersSnapshot returns this group's forwarding-outcome counters.
func (g *Group) CountersSnapshot() CountersSnapshot {
	snap := g.counters.Snapshot()
	return CountersSnapshot{
		ForwardAcked:    snap[metrics.CounterForwardAcked],
		ForwardRetries:  snap[metrics.CounterForwardRetries],
		ForwardRepaired: snap[metrics.CounterForwardRepaired],
		ForwardLost:     snap[metrics.CounterForwardLost],
	}
}

// Settle drives this group's maintenance to convergence synchronously;
// see Network.Settle for the all-groups form.
func (g *Group) Settle(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, m := range g.snapshot() {
			m.node.StabilizeOnce()
		}
		for _, m := range g.snapshot() {
			m.node.FixAll()
		}
	}
}

// Neighbors reports every live member's ring neighborhood, sorted by ring
// identifier.
func (g *Group) Neighbors() []NeighborInfo { return neighborsOf(g.snapshot()) }

func (g *Group) snapshot() []*Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Member, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, m)
	}
	return out
}

// remove drops m from the group unless another member has since taken its
// address.
func (g *Group) remove(addr string, m *Member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.members[addr] == m {
		delete(g.members, addr)
	}
}

// CreateGroup registers a new named group and returns its handle. The
// name maps deterministically to the group's wire flow label; two names
// hashing to the same label is rejected as a collision (astronomically
// unlikely with FNV-1a 64, but checked rather than silently merged).
// The name "default" is reserved for the Network's default group.
func (n *Network) CreateGroup(name string, opts GroupOptions) (*Group, error) {
	if name == "" {
		return nil, errors.New("camcast: group name must not be empty")
	}
	gid := transport.GroupLabel(name)
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, errors.New("camcast: network closed")
	}
	n.gmu.Lock()
	defer n.gmu.Unlock()
	if _, ok := n.groups[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrGroupExists, name)
	}
	if other, ok := n.labels[gid]; ok {
		return nil, fmt.Errorf("camcast: group %q collides with %q on flow label %d", name, other.name, gid)
	}
	g := newGroup(n.host, name, gid, opts.Token)
	n.groups[name] = g
	n.labels[gid] = g
	return g, nil
}

// newGroup builds a group whose Create and Join add members to home (nil
// for the private group of a ListenTCP member).
func newGroup(home *host, name string, gid uint64, token string) *Group {
	return &Group{
		home:     home,
		name:     name,
		gid:      gid,
		token:    token,
		counters: &metrics.Counters{},
		members:  make(map[string]*Member),
	}
}

// JoinGroup returns the handle of an existing group. A protected group
// requires its token; the comparison is constant-time. Joining the group
// as a member is then Group.Join (or Group.ListenOn for TCP members).
func (n *Network) JoinGroup(name, token string) (*Group, error) {
	n.gmu.Lock()
	g, ok := n.groups[name]
	n.gmu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchGroup, name)
	}
	if !g.checkToken(token) {
		return nil, fmt.Errorf("%w: %s", ErrBadToken, name)
	}
	return g, nil
}

// DefaultGroup returns the Network's always-present open group — the one
// Network.Create and Network.Join delegate to. Its flow label is 0.
func (n *Network) DefaultGroup() *Group { return n.def }

// Groups returns a control-plane summary of every group, sorted by name.
// Summaries omit member lists; use JoinGroup + Describe for those.
func (n *Network) Groups() []GroupInfo {
	groups := n.groupSnapshot()
	out := make([]GroupInfo, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
