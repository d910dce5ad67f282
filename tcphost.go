package camcast

import (
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"sync"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/runtime"
	"camcast/internal/transport"
)

// HostOptions configure a TCPHost's shared transport. The zero value is
// ready to use.
type HostOptions struct {
	// DialTimeout bounds TCP connection establishment. Zero keeps the
	// transport default (2s).
	DialTimeout time.Duration
	// RPCTimeout bounds each request/response exchange so a hung peer
	// cannot wedge a pooled connection. Zero keeps the transport default
	// (10s).
	RPCTimeout time.Duration
	// GroupBacklogLimit bounds, per group and per connection, the bytes
	// of unflushed outbound requests before further sends from that group
	// fail with a backlog error instead of growing the buffer — the
	// write-side isolation that keeps one saturating group from queueing
	// unboundedly ahead of its peers. Zero disables the quota. Responses
	// are exempt so a busy group can always drain inbound work.
	GroupBacklogLimit int
}

// TCPHost is one process's shared TCP footprint: a single listener,
// transport, event bus, and metrics registry hosting up to one member per
// group at the same "host:port" address. All members' traffic — any
// number of groups — multiplexes over one pipelined TCP connection per
// peer pair, with each frame carrying its group's flow label and the
// flush-coalescing writer interleaving groups fairly (weighted round
// robin) when a batch mixes them.
//
// Create with NewTCPHost, add members with Group.ListenOn, and Close when
// done. ListenTCP remains the single-member convenience wrapper.
type TCPHost struct {
	tr  *transport.TCP
	bus *obsv.Bus
	reg *obsv.Registry

	hmu     sync.Mutex         // protects members/closed; "hmu" to keep stack traces distinct from Group.mu
	members map[uint64]*Member // by group flow label
	closed  bool
}

// NewTCPHost starts a TCP transport listening at listenAddr (use
// "127.0.0.1:0" to pick a free port) with no members yet.
func NewTCPHost(listenAddr string, opts HostOptions) (*TCPHost, error) {
	runtime.RegisterWireTypes()
	tr, err := transport.NewTCP(listenAddr)
	if err != nil {
		return nil, err
	}
	if opts.DialTimeout > 0 {
		tr.DialTimeout = opts.DialTimeout
	}
	if opts.RPCTimeout > 0 {
		tr.RPCTimeout = opts.RPCTimeout
	}
	if opts.GroupBacklogLimit > 0 {
		tr.GroupBacklogLimit = opts.GroupBacklogLimit
	}
	h := &TCPHost{
		tr:      tr,
		bus:     obsv.NewBus(),
		reg:     obsv.NewRegistry(),
		members: make(map[uint64]*Member),
	}
	tr.Instrument(h.reg)
	return h, nil
}

// Addr returns the host's bound "host:port" address. Every member of the
// host shares it; peers reach a specific member by (group, address).
func (h *TCPHost) Addr() string { return h.tr.Addr() }

// Conns returns the number of live TCP connections the host currently
// maintains, counting both dialed and accepted ones. Because every group
// shares the pooled connection to a given peer, this stays at one per
// peer process no matter how many groups the two ends have in common.
func (h *TCPHost) Conns() int { return h.tr.ConnCount() }

// Metrics returns a snapshot of the host's metrics registry: transport
// metrics (including the per-group "transport.group.*" counters) plus
// every hosted member's protocol metrics.
func (h *TCPHost) Metrics() MetricsSnapshot { return h.reg.Snapshot() }

// Groups returns the names of the groups with a member on this host,
// sorted.
func (h *TCPHost) Groups() []string {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	out := make([]string, 0, len(h.members))
	for _, m := range h.members {
		out = append(out, m.group)
	}
	sort.Strings(out)
	return out
}

// DebugHandler returns the host's live debug surface —
// /debug/camcast/{stats,neighbors,events} plus net/http/pprof — covering
// every member, ready to mount on an HTTP server.
func (h *TCPHost) DebugHandler() http.Handler {
	return obsv.Debug{
		Registry: h.reg,
		Bus:      h.bus,
		Neighbors: func() any {
			h.hmu.Lock()
			members := maps.Clone(h.members)
			h.hmu.Unlock()
			out := make([]NeighborInfo, 0, len(members))
			for gid, m := range members {
				ni := m.Neighbors()
				if gid != transport.DefaultGroup {
					ni.Group = m.group
				}
				out = append(out, ni)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
			return out
		},
	}.Handler()
}

// Close stops every hosted member abruptly (a crash, as peers see it) and
// releases the transport. Safe to call multiple times.
func (h *TCPHost) Close() {
	h.hmu.Lock()
	if h.closed {
		h.hmu.Unlock()
		return
	}
	h.closed = true
	members := h.members
	h.members = make(map[uint64]*Member)
	h.hmu.Unlock()
	for _, m := range members {
		m.stop()
	}
	h.tr.Close()
}

// remove drops m from the host unless another member of its group has
// since taken its place.
func (h *TCPHost) remove(gid uint64, m *Member) {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	if h.members[gid] == m {
		delete(h.members, gid)
	}
}

// listenOn starts a member of the given group on this host. Transport
// settings in opts (DialTimeout, RPCTimeout, GroupBacklogLimit) are ignored
// here — they were fixed when the host was built. A member that owns the
// host closes it when it leaves or closes.
func (h *TCPHost) listenOn(gid uint64, group, via string, opts Options, owns bool) (*Member, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	h.hmu.Lock()
	if h.closed {
		h.hmu.Unlock()
		return nil, errors.New("camcast: host closed")
	}
	if _, ok := h.members[gid]; ok {
		h.hmu.Unlock()
		return nil, fmt.Errorf("%w: host %s already carries a member of group %q", ErrMemberExists, h.tr.Addr(), group)
	}
	h.hmu.Unlock()

	h.tr.LabelGroup(gid, group)
	m := &Member{group: group, host: h, bus: h.bus, reg: h.reg}
	m.detach = func() {
		h.remove(gid, m)
		if owns {
			h.Close()
		}
	}
	if err := m.start(h.tr.Flow(gid), h.tr.Addr(), via, cfg, opts); err != nil {
		return nil, err
	}

	h.hmu.Lock()
	if h.closed {
		h.hmu.Unlock()
		m.stop()
		return nil, errors.New("camcast: host closed")
	}
	if _, ok := h.members[gid]; ok {
		h.hmu.Unlock()
		m.stop()
		return nil, fmt.Errorf("%w: host %s already carries a member of group %q", ErrMemberExists, h.tr.Addr(), group)
	}
	h.members[gid] = m
	h.hmu.Unlock()
	return m, nil
}

// ListenOn starts a member of this group on an existing TCPHost,
// multiplexed with the host's other members over the host's listener and
// pooled connections. With via == "" the member bootstraps the group's
// overlay; otherwise it joins through the member of the same group
// listening at via. A host carries at most one member per group.
//
// The member's traffic is tagged with the group's flow label on the
// wire; group identity across processes is the label alone, derived from
// the group name, and the group token is not verified by peers (see
// DESIGN.md §13).
func (g *Group) ListenOn(h *TCPHost, via string, opts Options) (*Member, error) {
	return h.listenOn(g.gid, g.name, via, opts, false)
}

// Listen starts a member of this group on its own dedicated TCPHost at
// listenAddr — NewTCPHost plus ListenOn, with the host's transport
// settings taken from opts and the host closed when the member is. Use
// NewTCPHost + ListenOn to share one host across groups.
func (g *Group) Listen(listenAddr, via string, opts Options) (*Member, error) {
	return listenOwned(listenAddr, g.gid, g.name, via, opts)
}

// listenOwned starts a member of the given group on a new TCPHost at
// listenAddr, built from the transport-level member options, which the
// member closes when it leaves or closes (ListenTCP, Group.Listen).
func listenOwned(listenAddr string, gid uint64, group, via string, opts Options) (*Member, error) {
	h, err := NewTCPHost(listenAddr, HostOptions{
		DialTimeout:       opts.DialTimeout,
		RPCTimeout:        opts.RPCTimeout,
		GroupBacklogLimit: opts.GroupBacklogLimit,
	})
	if err != nil {
		return nil, err
	}
	m, err := h.listenOn(gid, group, via, opts, true)
	if err != nil {
		h.Close()
		return nil, err
	}
	return m, nil
}

// ListenTCP starts a member on a real TCP socket at listenAddr (use
// "127.0.0.1:0" to pick a free port). With via == "" the member bootstraps
// a fresh group; otherwise it joins the group through the existing member
// listening at via (a "host:port" string). Options.DialTimeout and
// RPCTimeout tune the transport's connection and per-RPC deadlines.
//
// ListenTCP is a thin wrapper over NewTCPHost plus a default-group
// ListenOn: the member runs in the default group (flow label 0) on a
// dedicated host that is closed when the member is. Multi-group
// processes create one TCPHost and add a member per group with
// Group.ListenOn instead.
func ListenTCP(listenAddr, via string, opts Options) (*Member, error) {
	return listenOwned(listenAddr, transport.DefaultGroup, "default", via, opts)
}
