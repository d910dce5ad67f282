package camcast

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"camcast/internal/obsv"
	"camcast/internal/runtime"
	"camcast/internal/transport"
)

// flowSource is what a host needs of its transport: a per-group view to run
// members on, group names for the per-group metrics, and a registry to
// report into. Both transport.Network and transport.TCP provide it.
type flowSource interface {
	Flow(gid uint64) *transport.Flow
	LabelGroup(gid uint64, name string)
	Instrument(reg *obsv.Registry)
}

// endpoint is where a member sits on its host's transport: its group's
// flow label and its address.
type endpoint struct {
	gid  uint64
	addr string
}

// host is one transport and the members running on it, the part Network
// and TCPHost share: the transport's group flows, the event bus and
// metrics registry its members report into, the scheduler that runs their
// maintenance, and the members Close stops. Each member is also in its
// group's table; Group.add and Member.detach keep the two in step.
type host struct {
	flows flowSource
	bus   *obsv.Bus
	reg   *obsv.Registry
	sched *runtime.Scheduler

	mu       sync.Mutex // protects members/starting/closed; taken before Group.mu
	members  map[endpoint]*Member
	starting map[endpoint]struct{} // endpoints held by adds still starting their node
	closed   bool
}

func newHost(flows flowSource) *host {
	h := &host{
		flows:    flows,
		bus:      obsv.NewBus(),
		reg:      obsv.NewRegistry(),
		members:  make(map[endpoint]*Member),
		starting: make(map[endpoint]struct{}),
	}
	flows.Instrument(h.reg)
	// A wall-clock shard only dispatches rounds, each on a goroutine of
	// its own, so one shard serves a host of any size.
	h.sched = runtime.NewScheduler(runtime.SchedulerConfig{Shards: 1, Metrics: h.reg})
	h.sched.Start()
	return h
}

var errHostClosed = errors.New("camcast: host closed")

// add starts m, a member of g on m.host at addr, enters it in both the
// group's table and the host's set, and hands it to the host's scheduler.
// With via == "" the member bootstraps the group's overlay; otherwise it
// joins through via. The endpoint is held while the node starts, so
// concurrent adds at one address cannot take over each other's transport
// registration. The checks run again once the node has started, so a
// member never outlives a Close that ran meanwhile.
func (g *Group) add(m *Member, addr, via string, opts Options) (*Member, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	h, ep := m.host, endpoint{g.gid, addr}
	h.mu.Lock()
	if err := h.admitLocked(g, ep); err != nil {
		h.mu.Unlock()
		return nil, err
	}
	h.starting[ep] = struct{}{}
	h.mu.Unlock()

	m.group = g
	cfg.Counters = g.counters
	h.flows.LabelGroup(g.gid, g.name)
	err = m.start(h.flows.Flow(g.gid), addr, via, cfg, opts)

	h.mu.Lock()
	delete(h.starting, ep)
	if err != nil {
		h.mu.Unlock()
		return nil, err
	}
	if err = h.admitLocked(g, ep); err == nil {
		h.members[ep] = m
		g.mu.Lock()
		g.members[addr] = m
		g.mu.Unlock()
		h.sched.Add(m.node) // under h.mu, so close cannot miss it
	}
	h.mu.Unlock()
	if err != nil {
		m.stop() // outside h.mu: stopping waits for the member's Observer
		return nil, err
	}
	return m, nil
}

// admitLocked reports whether a new member of g may take ep: the host is
// open, and neither the host's transport endpoint nor the group's address
// is in use or being started. Callers hold h.mu.
func (h *host) admitLocked(g *Group, ep endpoint) error {
	if h.closed {
		return errHostClosed
	}
	g.mu.Lock()
	_, taken := g.members[ep.addr]
	g.mu.Unlock()
	_, live := h.members[ep]
	_, starting := h.starting[ep]
	if taken || live || starting {
		return fmt.Errorf("%w: %s in group %q", ErrMemberExists, ep.addr, g.name)
	}
	return nil
}

// detach removes m from its group's table and its host's set, each only
// while the entry is still m, and closes a host the member owns.
func (m *Member) detach() {
	addr := m.Addr()
	m.group.remove(addr, m)
	h := m.host
	h.mu.Lock()
	if ep := (endpoint{m.group.gid, addr}); h.members[ep] == m {
		delete(h.members, ep)
	}
	h.mu.Unlock()
	if m.owns {
		m.tcp.Close()
	}
}

// snapshot returns the host's live members.
func (h *host) snapshot() []*Member {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Member, 0, len(h.members))
	for _, m := range h.members {
		out = append(out, m)
	}
	return out
}

// close stops every member abruptly, removes it from its group, and stops
// the scheduler. An add racing it either has its member stopped here or
// fails its final check, and no add succeeds afterwards. Safe to call
// multiple times.
func (h *host) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	members := h.members
	h.members = make(map[endpoint]*Member)
	h.mu.Unlock()
	for _, m := range members {
		m.stop()
		m.group.remove(m.Addr(), m)
	}
	h.sched.Stop()
}

// neighborsOf reports each member's ring neighbourhood, sorted by ring
// identifier and then group. Members outside the default group carry
// their group's name in NeighborInfo.Group.
func neighborsOf(members []*Member) []NeighborInfo {
	out := make([]NeighborInfo, 0, len(members))
	for _, m := range members {
		ni := m.Neighbors()
		if m.group.gid != transport.DefaultGroup {
			ni.Group = m.group.name
		}
		out = append(out, ni)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Group < out[j].Group
	})
	return out
}
