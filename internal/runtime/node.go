// Package runtime implements the dynamic protocol layer of the two CAM
// systems: live nodes that join and leave over a message transport, maintain
// their ring and neighbor state with Chord's protocols (Section 3.3 — "we
// use the same Chord protocols to handle member join/departure ... the only
// difference is that our LOOKUP routine replaces the Chord LOOKUP routine"),
// and disseminate multicast messages along the implicit trees of Sections
// 3.4 and 4.3.
//
// The static packages (internal/camchord, internal/camkoorde) compute trees
// against a global membership snapshot for the paper's large-scale
// measurements; this package is the deployable counterpart, where every node
// acts only on its own routing state.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"camcast/internal/ids"
	"camcast/internal/metrics"
	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/timing"
	"camcast/internal/transport"
)

// Mode selects the overlay protocol a node speaks.
type Mode int

// Supported protocol modes.
const (
	ModeCAMChord Mode = iota + 1
	ModeCAMKoorde
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCAMChord:
		return "cam-chord"
	case ModeCAMKoorde:
		return "cam-koorde"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Runtime errors matchable with errors.Is.
var (
	// ErrStopped reports an operation on a node that has left or crashed.
	ErrStopped = errors.New("runtime: node stopped")
	// ErrLookupFailed reports that a lookup could not complete, e.g.
	// because every candidate next hop was unreachable.
	ErrLookupFailed = errors.New("runtime: lookup failed")
)

// Transport is the messaging substrate a node runs on. The in-memory
// implementation (internal/transport.Network) is used by tests, simulations
// and the public in-process API; the TCP implementation
// (internal/transport.TCP) runs the same protocol across real sockets.
type Transport interface {
	// Call delivers one request and returns the remote handler's response.
	// The context bounds the call: transports must give up (returning
	// ctx.Err() or a wrapped equivalent) once the deadline passes, so one
	// dead or slow peer cannot stall the caller indefinitely. Call must
	// read ctx.Deadline() and enforce it itself: the node bounds each RPC
	// with a deadline that no timer backs, so Done() does not close when
	// it passes (Done() closes only on the caller's own cancellation).
	// That bound starts at the first ctx.Deadline() read: a transport
	// reads it before it spends time the bound should cover (a network
	// exchange, a simulated delay), and until then ctx.Err() reports only
	// the caller's cancellation, so a call that never reads it (an
	// in-process call with no delay) reads no clock for its bound.
	// Call must not retain ctx after it returns.
	Call(ctx context.Context, from, to, kind string, payload any) (any, error)
	// Register attaches the handler serving addr.
	Register(addr string, h transport.Handler)
	// Unregister detaches addr, making it unreachable.
	Unregister(addr string)
}

// The in-memory network must satisfy the node's transport contract, and so
// must the per-group Flow views of both transports — a node hosted in a
// multi-group process runs on a Flow without knowing it.
var (
	_ Transport = (*transport.Network)(nil)
	_ Transport = (*transport.Flow)(nil)
)

// Delivery is one multicast message handed to the application.
//
// Payload is borrowed, not owned: on the zero-copy path it aliases the
// pooled receive buffer the frame arrived in, which returns to the pool —
// and is reused for unrelated traffic — once the delivering handler
// finishes. It is valid only for the duration of the OnDeliver call; a
// handler that keeps the message must copy it (bytes.Clone) before
// returning. transport.PoisonBlobsOnRelease turns violations into
// deterministic garbage for tests.
type Delivery struct {
	MsgID   string
	Source  NodeInfo
	Payload []byte
	Hops    int // overlay hops the message travelled from the source
}

const (
	// succListLen is the resilience successor-list length: a member keeps
	// its ring link through succListLen-1 consecutive failures ahead of it.
	succListLen = 4
	// seenLimit bounds the duplicate-suppression cache, in message ids.
	seenLimit = 4096
)

// Config parameterizes a node.
type Config struct {
	Space    ring.Space
	Mode     Mode
	Capacity int // c_x: maximum direct multicast children

	// StabilizeEvery / FixEvery are the node's maintenance cadences once
	// a Scheduler owns it (Scheduler.Add). Zero means the defaults, 500ms
	// and 1s; negative runs no background round of that kind. A node no
	// Scheduler owns runs no maintenance of its own: its owner calls
	// StabilizeOnce/FixOnce (deterministic tests do this).
	StabilizeEvery time.Duration
	FixEvery       time.Duration

	// ForwardRetries is how many times a failed child send is retried
	// (re-resolving the child between attempts) before the orphaned
	// segment is repaired or reported lost. Zero means the default (2);
	// negative disables retries.
	ForwardRetries int
	// ForwardTimeout is the per-child send deadline during multicast
	// fan-out. Zero means the default (2s); negative disables deadlines.
	ForwardTimeout time.Duration
	// ForwardParallel bounds concurrent in-flight child sends per
	// fan-out: up to ForwardParallel-1 sends run on the process-wide
	// warm worker pool, the rest (and always the first) on the caller's
	// goroutine. Zero means the default (8); negative serializes sends.
	ForwardParallel int
	// RetryBackoff is the delay before the first retry; each further
	// retry doubles it, with ±50% deterministic jitter. Zero means the
	// default (5ms); negative disables backoff.
	RetryBackoff time.Duration
	// CallTimeout optionally bounds every non-multicast RPC (lookups,
	// stabilization, offers); zero leaves them unbounded.
	CallTimeout time.Duration
	// SuspicionWindow is how long the node's failure detector holds a
	// peer suspect after one of the node's own RPCs to it failed with an
	// unreachability error (unreachable, partitioned, or deadline
	// exceeded), unless the peer answers a later RPC first. A suspect is
	// skipped as a routing detour and, when it is a forwarding child,
	// re-resolved before the send; a ring pointer is dropped only when a
	// call to its peer fails. Zero or negative means the default (1s).
	SuspicionWindow time.Duration

	// Clock is the time source for protocol-time decisions (suspicion
	// expiry). Simulations and the replay engine install a
	// timing.Virtual so protocol time advances with the simulation, not
	// the host; nil means wall time. Latency histograms always measure
	// wall time — they report real compute cost, not simulated time.
	Clock timing.Clock

	// Counters optionally receives group-wide forwarding outcome counts
	// (see the metrics.CounterForward* names); nil disables.
	Counters *metrics.Counters

	// OnDeliver receives every multicast delivery, including the sender's
	// own. Called synchronously from protocol handlers; keep it fast. The
	// Delivery's Payload is only valid for the duration of the call — copy
	// it to retain it (see Delivery).
	OnDeliver func(Delivery)
	// OnRequest serves application-level unicast requests sent with
	// Node.RequestContext (e.g. retransmission NACKs from a reliability
	// layer). nil rejects such requests.
	OnRequest func(from string, payload []byte) ([]byte, error)
	// Bus optionally publishes protocol events (joins, forwards, repairs,
	// deliveries) to live subscribers (debug endpoints, observers, tests);
	// nil discards. Emission is one atomic load when nobody is subscribed.
	Bus *obsv.Bus
	// Metrics optionally accumulates hot-path measurements — forwarding
	// outcomes, lookup hop counts, multicast tree build time — under the
	// obsv.Metric* names; nil disables.
	Metrics *obsv.Registry

	// Arena, when set, interns this node's neighbor references (successor
	// list, routing-table slots, predecessor) into a shared node table —
	// the scheduler hands out one arena per shard (Scheduler.ArenaFor), so
	// co-sharded members store each address/identifier pair once between
	// them. nil gives the node a private arena; behavior is identical, only
	// the sharing is lost.
	Arena *NodeArena
}

func (c *Config) applyDefaults() {
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 500 * time.Millisecond
	}
	if c.FixEvery == 0 {
		c.FixEvery = time.Second
	}
	switch {
	case c.ForwardRetries == 0:
		c.ForwardRetries = 2
	case c.ForwardRetries < 0:
		c.ForwardRetries = 0
	}
	switch {
	case c.ForwardTimeout == 0:
		c.ForwardTimeout = 2 * time.Second
	case c.ForwardTimeout < 0:
		c.ForwardTimeout = 0
	}
	switch {
	case c.ForwardParallel == 0:
		c.ForwardParallel = 8
	case c.ForwardParallel < 0:
		c.ForwardParallel = 1
	}
	switch {
	case c.RetryBackoff == 0:
		c.RetryBackoff = 5 * time.Millisecond
	case c.RetryBackoff < 0:
		c.RetryBackoff = 0
	}
	if c.CallTimeout < 0 {
		c.CallTimeout = 0
	}
	if c.SuspicionWindow <= 0 {
		c.SuspicionWindow = time.Second
	}
}

func (c *Config) validate() error {
	if c.Space.Bits() == 0 {
		return fmt.Errorf("runtime: zero identifier space; construct with ring.NewSpace")
	}
	switch c.Mode {
	case ModeCAMChord:
		if c.Capacity < 2 {
			return fmt.Errorf("runtime: cam-chord capacity %d must be >= 2", c.Capacity)
		}
	case ModeCAMKoorde:
		if c.Capacity < 4 {
			return fmt.Errorf("runtime: cam-koorde capacity %d must be >= 4", c.Capacity)
		}
	default:
		return fmt.Errorf("runtime: unknown mode %d", c.Mode)
	}
	return nil
}

// Stats are cumulative per-node protocol counters.
type Stats struct {
	Delivered uint64 // multicast messages delivered to the application
	Forwarded uint64 // multicast copies sent to children (incl. repairs)
	// Duplicates counts suppressed duplicate deliveries and refused
	// CAM-Koorde offers. A flood offers nothing back to the neighbour
	// that sent it the payload, so that neighbour is not counted.
	Duplicates uint64
	// Lookups counts find_successor requests served, the node's own
	// included; TableFaults counts child resolutions that needed an
	// on-demand lookup. A spread child that the node's own pointers
	// resolve (DESIGN.md §6) counts in neither.
	Lookups     uint64
	TableFaults uint64

	// Forwarding-outcome accounting (see DESIGN.md "Delivery guarantees
	// and failure semantics").
	ChildrenAcked    uint64 // direct child sends acknowledged
	Retries          uint64 // child sends retried after a failure
	SegmentsRepaired uint64 // orphaned segments handed to a live node
	SegmentsLost     uint64 // segments abandoned after retries and repair failed
}

// Node is one live overlay member.
type Node struct {
	cfg   Config
	space ring.Space
	self  NodeInfo
	net   Transport
	// blobPayloads records whether the transport sends BlobMarshaler
	// payloads zero-copy, in which case Multicast materializes the payload
	// into a shared transport.Blob once up front. Only a transport whose
	// calls cross the wire does, so a CAM-Koorde relay also reads it to
	// run each offer on its own lane (floodFan.serve).
	blobPayloads bool

	clock timing.Clock

	// The routing-table layout (which slots exist, how each slot's target
	// identifier derives from the node's own) is an immutable tableSpec
	// shared by every node with the same (space, mode, capacity) — reads
	// need no lock and the node stores one pointer. The mutable neighbor
	// state — predecessor, successor list, resolved slots — is held as
	// uint32 references into the node arena (addresses and identifiers
	// interned once per shard), guarded by mu. A maintenance or fan-out
	// pass walks contiguous integer slices the collector never scans.
	spec  *tableSpec
	arena *NodeArena

	mu        sync.Mutex
	predRef   uint32   // noRef = predecessor unknown
	succRefs  []uint32 // [0] is the immediate successor; equals self when alone
	succSpare []uint32 // second buffer; setSuccsLocked ping-pongs between them
	slotRefs  []uint32 // resolved table entries; noRef = unfilled
	cursor    int      // round-robin table refresh position
	started   bool
	stopped   bool
	busy      uint8 // Scheduler rounds in flight, bit 1<<kind per kind
	// predCheck is set when a notify was refused in favour of the current
	// predecessor; the next stabilization round pings that predecessor.
	predCheck bool
	// lastSucc is the successor whose failed call emptied the successor
	// list, kept until stabilization rejoins the ring through it.
	lastSucc NodeInfo

	seen      *seenCache
	reflooded *seenCache // message IDs this node already issued a reflood repair for
	seq       atomic.Uint64
	obs       nodeObs

	delivered   atomic.Uint64
	forwarded   atomic.Uint64
	duplicates  atomic.Uint64
	lookups     atomic.Uint64
	tableFaults atomic.Uint64
	acked       atomic.Uint64
	retries     atomic.Uint64
	repaired    atomic.Uint64
	lost        atomic.Uint64

	rngMu    sync.Mutex
	rngState uint64 // retry-jitter source (splitmix64), seeded from the node's ID

	// The failure detector: peers whose last RPC from this node failed
	// with an unreachability error, and when that suspicion expires.
	// nsuspects mirrors len(suspects) so the per-child check on the
	// forwarding path takes no lock while nobody is suspect.
	suspectMu sync.Mutex
	suspects  map[string]time.Time // addr -> suspicion expiry
	nsuspects atomic.Int32

	// topoGen counts membership-state writes — pred, successor list, table
	// slots, suspicion changes — and gates the forwarding engine's segment
	// confirmation memo (confirmSuccessor): lookups memoized in one
	// generation are discarded the moment the node's view of the group
	// moves, so a quiet group resolves per-message confirmations with ring
	// arithmetic while a churning one falls back to fresh lookup chains.
	topoGen atomic.Uint64

	memoMu  sync.Mutex
	memoGen uint64
	memo    map[ring.ID]NodeInfo

	stopCh chan struct{}
	// rounds counts the Scheduler rounds running on this node, which Stop
	// waits for; busy flags their kinds.
	rounds sync.WaitGroup
}

// noteTopologyChange starts a new topology generation, invalidating every
// memoized confirmation lookup.
func (n *Node) noteTopologyChange() { n.topoGen.Add(1) }

// NewNode creates a node bound to addr on the network. The node is inert
// until Bootstrap or Join is called.
func NewNode(net Transport, addr string, cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("runtime: nil network")
	}
	if addr == "" {
		return nil, fmt.Errorf("runtime: empty address")
	}
	n := &Node{
		cfg:       cfg,
		space:     cfg.Space,
		self:      NodeInfo{Addr: addr, ID: ids.NewHasher(cfg.Space).ID(addr)},
		net:       net,
		clock:     cfg.Clock,
		arena:     cfg.Arena,
		seen:      newSeenCache(seenLimit),
		reflooded: newSeenCache(seenLimit),
		suspects:  make(map[string]time.Time),
		memo:      make(map[ring.ID]NodeInfo),
		stopCh:    make(chan struct{}),
	}
	if n.clock == nil {
		n.clock = timing.Wall()
	}
	if n.arena == nil {
		n.arena = NewNodeArena()
	}
	n.spec = specFor(n.space, cfg.Mode, cfg.Capacity)
	n.predRef = noRef
	n.succRefs = make([]uint32, 0, succListLen)
	n.succSpare = make([]uint32, 0, succListLen)
	n.slotRefs = make([]uint32, n.spec.len())
	for i := range n.slotRefs {
		n.slotRefs[i] = noRef
	}
	n.obs = newNodeObs(cfg.Bus, cfg.Metrics)
	n.rngState = uint64(n.self.ID) + 1
	if bt, ok := net.(interface{ BlobPayloads() bool }); ok {
		n.blobPayloads = bt.BlobPayloads()
	}
	return n, nil
}

// The locked neighbor accessors below assume n.mu is held. Mutators intern
// the incoming info before releasing the outgoing reference, so a write
// that keeps a neighbor unchanged keeps its arena slot (and generation).

// predLocked returns the predecessor, if known.
func (n *Node) predLocked() (NodeInfo, bool) {
	if n.predRef == noRef {
		return NodeInfo{}, false
	}
	return n.arena.Resolve(n.predRef), true
}

// setPredLocked replaces the predecessor; the zero NodeInfo clears it.
func (n *Node) setPredLocked(info NodeInfo) {
	ref := n.arena.Intern(info)
	n.arena.Release(n.predRef)
	n.predRef = ref
}

// succHeadLocked returns the immediate successor, if any.
func (n *Node) succHeadLocked() (NodeInfo, bool) {
	if len(n.succRefs) == 0 {
		return NodeInfo{}, false
	}
	return n.arena.Resolve(n.succRefs[0]), true
}

// setSuccHeadLocked replaces succs[0] in place.
func (n *Node) setSuccHeadLocked(info NodeInfo) {
	ref := n.arena.Intern(info)
	n.arena.Release(n.succRefs[0])
	n.succRefs[0] = ref
}

// setSuccsLocked replaces the whole successor list. The two fixed-capacity
// buffers ping-pong so steady-state stabilization rebuilds allocate
// nothing.
func (n *Node) setSuccsLocked(list []NodeInfo) {
	scratch := n.succSpare[:0]
	for _, info := range list {
		if ref := n.arena.Intern(info); ref != noRef {
			scratch = append(scratch, ref)
		}
	}
	for _, ref := range n.succRefs {
		n.arena.Release(ref)
	}
	n.succSpare = n.succRefs[:0]
	n.succRefs = scratch
}

// setSuccSelfLocked resets the successor list to [self] (alone in the ring).
func (n *Node) setSuccSelfLocked() {
	for _, ref := range n.succRefs {
		n.arena.Release(ref)
	}
	n.succRefs = append(n.succRefs[:0], n.arena.Intern(n.self))
}

// popSuccLocked drops the head of the successor list.
func (n *Node) popSuccLocked() {
	n.arena.Release(n.succRefs[0])
	copy(n.succRefs, n.succRefs[1:])
	n.succRefs = n.succRefs[:len(n.succRefs)-1]
}

// setSlotLocked replaces table slot i and returns the previous occupant.
func (n *Node) setSlotLocked(i int, info NodeInfo) NodeInfo {
	old := n.arena.Resolve(n.slotRefs[i])
	ref := n.arena.Intern(info)
	n.arena.Release(n.slotRefs[i])
	n.slotRefs[i] = ref
	return old
}

// jitterFloat returns a uniform float64 in [0, 1) from the node's compact
// splitmix64 state. Retry-backoff jitter is the only randomness a node
// consumes, so a full *rand.Rand (~5KB of generator state per member) was
// the single largest slice of the per-member footprint.
func (n *Node) jitterFloat() float64 {
	n.rngMu.Lock()
	n.rngState += 0x9e3779b97f4a7c15
	z := n.rngState
	n.rngMu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Self returns the node's own identity.
func (n *Node) Self() NodeInfo { return n.self }

// Capacity returns the node's configured capacity c_x.
func (n *Node) Capacity() int { return n.cfg.Capacity }

// Mode returns the node's protocol mode.
func (n *Node) Mode() Mode { return n.cfg.Mode }

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats {
	return Stats{
		Delivered:        n.delivered.Load(),
		Forwarded:        n.forwarded.Load(),
		Duplicates:       n.duplicates.Load(),
		Lookups:          n.lookups.Load(),
		TableFaults:      n.tableFaults.Load(),
		ChildrenAcked:    n.acked.Load(),
		Retries:          n.retries.Load(),
		SegmentsRepaired: n.repaired.Load(),
		SegmentsLost:     n.lost.Load(),
	}
}

// Predecessor returns the current predecessor, if known.
func (n *Node) Predecessor() (NodeInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.predLocked()
}

// SuccessorList returns a copy of the node's successor list.
func (n *Node) SuccessorList() []NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeInfo, len(n.succRefs))
	for i, ref := range n.succRefs {
		out[i] = n.arena.Resolve(ref)
	}
	return out
}

// Bootstrap starts the node as the first member of a fresh group.
func (n *Node) Bootstrap() error {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	n.started = true
	n.setPredLocked(n.self)
	n.setSuccSelfLocked()
	n.noteTopologyChange()
	n.mu.Unlock()

	n.net.Register(n.self.Addr, n.handleRPC)
	n.emitf(obsv.KindJoin, "bootstrap id=%d", n.self.ID)
	return nil
}

// Join enters an existing group through any current member.
func (n *Node) Join(bootstrapAddr string) error {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	n.mu.Unlock()

	start := time.Now()
	succ, err := n.joinLookup(bootstrapAddr, n.self.ID)
	if err != nil {
		return err
	}
	// Confirm the successor answers before committing, and take its
	// successor list as fallbacks. A lookup can name a member that has
	// just died (its predecessor has not stabilized yet); a joiner holding
	// only that corpse drops it on its first stabilization and is left a
	// ring of one that no member knows of. A successor this call found
	// unreachable is skipped by resolving the identifier just past it.
	var nb neighborsResp
	for skips := 0; ; skips++ {
		resp, err := n.call(succ.Addr, kindNeighbors, neighborsReq{})
		if err == nil {
			nb, _ = resp.(neighborsResp)
			break
		}
		if skips == succListLen || !unreachable(err) {
			return fmt.Errorf("runtime: join via %s: successor %s: %w", bootstrapAddr, succ.Addr, err)
		}
		if succ, err = n.joinLookup(bootstrapAddr, n.space.Add(succ.ID, 1)); err != nil {
			return err
		}
	}
	succs := []NodeInfo{succ}
	for _, s := range nb.Succs {
		if len(succs) >= succListLen {
			break
		}
		if s.Addr != n.self.Addr && s.Addr != succ.Addr {
			succs = append(succs, s)
		}
	}

	n.mu.Lock()
	n.started = true
	n.setPredLocked(NodeInfo{})
	n.setSuccsLocked(succs)
	n.noteTopologyChange()
	n.mu.Unlock()

	n.net.Register(n.self.Addr, n.handleRPC)
	// Integrate promptly rather than waiting a stabilization period.
	n.StabilizeOnce()
	n.obs.joinTime.ObserveDuration(time.Since(start))
	n.emitf(obsv.KindJoin, "joined via %s, successor %s", bootstrapAddr, succ.Addr)
	return nil
}

// joinLookup resolves the successor of k through the bootstrap member.
func (n *Node) joinLookup(bootstrapAddr string, k ring.ID) (NodeInfo, error) {
	resp, err := n.call(bootstrapAddr, kindFindSucc, findSuccReq{K: k})
	if err != nil {
		return NodeInfo{}, fmt.Errorf("runtime: join via %s: %w", bootstrapAddr, err)
	}
	fsResp, ok := resp.(findSuccResp)
	if !ok {
		return NodeInfo{}, fmt.Errorf("runtime: join via %s: bad response type %T", bootstrapAddr, resp)
	}
	succ := fsResp.Node
	if succ.ID == n.self.ID && succ.Addr != n.self.Addr {
		return NodeInfo{}, fmt.Errorf("runtime: identifier collision with %s (id %d)", succ.Addr, succ.ID)
	}
	return succ, nil
}

// Leave departs gracefully: ring neighbors are told to splice the node out,
// then the node stops.
func (n *Node) Leave() error {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	var pred *NodeInfo
	if p, ok := n.predLocked(); ok {
		pp := p
		pred = &pp
	}
	var succ *NodeInfo
	if head, ok := n.succHeadLocked(); ok && head.Addr != n.self.Addr {
		s := head
		succ = &s
	}
	n.mu.Unlock()

	start := time.Now()
	if succ != nil {
		_, _ = n.call(succ.Addr, kindLeaving, leavingReq{Departing: n.self, NewPred: pred})
	}
	if pred != nil && pred.Addr != n.self.Addr && succ != nil {
		_, _ = n.call(pred.Addr, kindLeaving, leavingReq{Departing: n.self, NewSucc: succ})
	}
	n.obs.leaveTime.ObserveDuration(time.Since(start))
	n.emit(obsv.KindLeave, "graceful")
	n.Stop()
	return nil
}

// Stop crashes the node: it vanishes from the network without telling
// anyone, and returns once its Scheduler round in flight, if any, has
// finished. Safe to call multiple times.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	started := n.started
	// Hand every neighbor reference back to the arena so a shared,
	// long-lived arena does not accumulate entries pinned by dead members.
	// Readers racing this see an empty table under mu (and the stopped
	// flag); NodeInfo values they copied out earlier stay valid forever.
	n.setPredLocked(NodeInfo{})
	for _, ref := range n.succRefs {
		n.arena.Release(ref)
	}
	n.succRefs = n.succRefs[:0]
	for i, ref := range n.slotRefs {
		n.arena.Release(ref)
		n.slotRefs[i] = noRef
	}
	n.mu.Unlock()

	n.net.Unregister(n.self.Addr)
	if started {
		close(n.stopCh)
	}
	n.rounds.Wait()
}

// Stopped reports whether the node has stopped.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// call issues one RPC from this node, bounded by Config.CallTimeout when
// set. Multicast child sends use sendTimed with the tighter ForwardTimeout.
func (n *Node) call(to, kind string, payload any) (any, error) {
	return n.callWithin(context.Background(), n.cfg.CallTimeout, to, kind, payload)
}

// callCtx issues one RPC under the caller's context and feeds its outcome
// to the failure detector (noteCallResult).
func (n *Node) callCtx(ctx context.Context, to, kind string, payload any) (any, error) {
	resp, err := n.net.Call(ctx, n.self.Addr, to, kind, payload)
	n.noteCallResult(to, err)
	return resp, err
}

// suspectMaxLen bounds the failure detector's map: an insert past it
// sweeps expired entries, then evicts the earliest-expiring ones, so a
// long-lived node probing an unbounded stream of dead peers holds bounded
// memory.
const suspectMaxLen = 1024

// unreachable reports whether a failed call could not reach its peer:
// unreachable, partitioned, or past its deadline. The caller's own
// cancellation says nothing about the peer, nor does a dropped message or
// a handler error, which proves the peer is there.
func unreachable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrPartitioned) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// noteCallResult is the node's failure detector, and its only input is the
// outcome of the node's own RPCs. A call that could not reach its peer
// marks the peer suspect for SuspicionWindow and, if the peer is the
// immediate successor, drops it from the successor list — whichever call
// it was: stabilization, forwarding or lookup. A response clears the mark.
// Nothing else prunes a ring pointer: suspicion alone can date from a
// partition that has since healed.
func (n *Node) noteCallResult(addr string, err error) {
	if err == nil {
		n.clearSuspect(addr)
	} else if unreachable(err) {
		n.markSuspect(addr)
		n.dropSuccessor(addr)
	}
}

// markSuspect records a failed call to addr, enforcing the map bound.
// Eviction ties break by address so a replay evicts the same entry every
// run.
func (n *Node) markSuspect(addr string) {
	now := n.clock.Now()
	n.suspectMu.Lock()
	defer n.suspectMu.Unlock()
	if _, ok := n.suspects[addr]; !ok {
		n.noteTopologyChange()
	}
	n.suspects[addr] = now.Add(n.cfg.SuspicionWindow)
	if len(n.suspects) > suspectMaxLen {
		for a, until := range n.suspects {
			if now.After(until) {
				delete(n.suspects, a)
			}
		}
	}
	for len(n.suspects) > suspectMaxLen {
		var oldest string
		var oldestUntil time.Time
		for a, until := range n.suspects {
			if oldest == "" || until.Before(oldestUntil) || (until.Equal(oldestUntil) && a < oldest) {
				oldest, oldestUntil = a, until
			}
		}
		delete(n.suspects, oldest)
	}
	n.nsuspects.Store(int32(len(n.suspects)))
}

// clearSuspect forgets any suspicion of addr after it answered.
func (n *Node) clearSuspect(addr string) {
	if n.nsuspects.Load() == 0 {
		return
	}
	n.suspectMu.Lock()
	defer n.suspectMu.Unlock()
	if _, ok := n.suspects[addr]; ok {
		delete(n.suspects, addr)
		n.nsuspects.Store(int32(len(n.suspects)))
		n.noteTopologyChange()
	}
}

// isSuspect reports whether addr failed this node's last RPC to it within
// SuspicionWindow.
func (n *Node) isSuspect(addr string) bool {
	if n.nsuspects.Load() == 0 {
		return false
	}
	n.suspectMu.Lock()
	defer n.suspectMu.Unlock()
	until, ok := n.suspects[addr]
	if !ok {
		return false
	}
	if n.clock.Now().After(until) {
		delete(n.suspects, addr)
		n.nsuspects.Store(int32(len(n.suspects)))
		return false
	}
	return true
}

// SweepSeen rotates the node's duplicate-suppression caches one generation
// forward (see seenCache). The maintenance scheduler calls this on a slow
// cadence so long-idle members shed their dedup window back to empty
// instead of pinning the last seenLimit message ids forever.
func (n *Node) SweepSeen() {
	n.seen.Sweep()
	n.reflooded.Sweep()
}

// countMetric bumps a shared group-wide counter when one is configured.
func (n *Node) countMetric(name string) {
	if n.cfg.Counters != nil {
		n.cfg.Counters.Add(name, 1)
	}
}

// handleRPC dispatches incoming requests.
func (n *Node) handleRPC(from, kind string, payload any) (any, error) {
	switch kind {
	case kindPing:
		return pingResp{Node: n.self}, nil
	case kindFindSucc:
		req, ok := payload.(findSuccReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleFindSucc(req)
	case kindNeighbors:
		return n.handleNeighbors()
	case kindNotify:
		req, ok := payload.(notifyReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleNotify(req)
	case kindLeaving:
		req, ok := payload.(leavingReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleLeaving(req)
	case kindMulticast:
		req, ok := payload.(multicastReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleMulticast(req)
	case kindOffer:
		req, ok := payload.(offerReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return offerResp{Want: !n.seen.Seen(req.MsgID)}, nil
	case kindFlood:
		req, ok := payload.(floodReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleFlood(from, req)
	case kindReflood:
		req, ok := payload.(floodReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		return n.handleReflood(from, req)
	case kindApp:
		req, ok := payload.(appReq)
		if !ok {
			return nil, fmt.Errorf("runtime: bad payload for %s", kind)
		}
		if n.cfg.OnRequest == nil {
			return nil, fmt.Errorf("runtime: node %s serves no application requests", n.self.Addr)
		}
		out, err := n.cfg.OnRequest(from, req.Payload)
		if err != nil {
			return nil, err
		}
		return appResp{Payload: out}, nil
	default:
		return nil, fmt.Errorf("runtime: unknown rpc kind %q", kind)
	}
}

func (n *Node) handleNeighbors() (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := neighborsResp{Succs: make([]NodeInfo, len(n.succRefs))}
	for i, ref := range n.succRefs {
		resp.Succs[i] = n.arena.Resolve(ref)
	}
	if p, ok := n.predLocked(); ok {
		pp := p
		resp.Pred = &pp
	}
	return resp, nil
}

func (n *Node) handleNotify(req notifyReq) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := req.Candidate
	if c.Addr == n.self.Addr {
		return notifyResp{}, nil
	}
	accepted := false
	pred, hasPred := n.predLocked()
	// A predecessor this node holds suspect no longer gates candidates:
	// its identifier would otherwise veto every live notifier ahead of it.
	// If it was alive after all, its own next notify takes the slot back.
	if hasPred && pred.Addr != n.self.Addr && n.isSuspect(pred.Addr) {
		n.setPredLocked(NodeInfo{})
		hasPred = false
	}
	if !hasPred || pred.Addr == n.self.Addr ||
		n.space.InOO(c.ID, pred.ID, n.self.ID) {
		n.setPredLocked(c)
		accepted = true
	} else if c.Addr != pred.Addr {
		// c believes it directly precedes this node, yet pred sits between
		// them: either c is behind on stabilization or pred is dead and no
		// RPC has told this node's failure detector yet. Nothing here calls
		// the predecessor, so a dead one would veto every live candidate
		// for good; have the next stabilization round check it.
		n.predCheck = true
	}
	// A second real member supersedes a self-successor.
	if head, ok := n.succHeadLocked(); ok && head.Addr == n.self.Addr {
		n.setSuccHeadLocked(c)
	}
	if accepted {
		n.noteTopologyChange()
	}
	return notifyResp{Accepted: accepted}, nil
}

func (n *Node) handleLeaving(req leavingReq) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if pred, ok := n.predLocked(); ok && pred.Addr == req.Departing.Addr {
		if req.NewPred == nil {
			n.setPredLocked(NodeInfo{})
		} else {
			n.setPredLocked(*req.NewPred)
		}
	}
	if head, ok := n.succHeadLocked(); ok && head.Addr == req.Departing.Addr {
		if req.NewSucc != nil {
			n.setSuccHeadLocked(*req.NewSucc)
		} else if len(n.succRefs) > 1 {
			n.popSuccLocked()
		} else {
			n.setSuccSelfLocked()
		}
	}
	n.noteTopologyChange()
	n.emitf(obsv.KindRepair, "spliced out %s", req.Departing.Addr)
	return leavingResp{Acked: true}, nil
}

// StabilizeOnce runs one round of Chord stabilization: verify the successor,
// adopt a closer one if the successor knows of it, refresh the successor
// list, and notify the successor of our existence.
//
// Every ring pointer is dropped on the outcome of a call to its peer,
// never on suspicion alone: suspicion can date from a partition that has
// since healed, and a pointer dropped then is a ring edge no notify
// restores.
func (n *Node) StabilizeOnce() {
	n.mu.Lock()
	succ, ok := n.succHeadLocked()
	stopped, last := n.stopped, n.lastSucc
	n.mu.Unlock()
	if stopped || !ok {
		return
	}
	if succ.Addr == n.self.Addr {
		// Alone in the ring. A node whose successor list ran out — every
		// entry failed a call, as a partition does to the members it cuts
		// off — retries the last of them each round; once the partition
		// heals, the predecessor walk below leads it back to its place.
		if last.zero() {
			return
		}
		succ = last
	}

	resp, err := n.call(succ.Addr, kindNeighbors, neighborsReq{})
	if err != nil {
		// A successor this call could not reach is already dropped
		// (noteCallResult). A lossy link is not a dead successor: one
		// that only lost a message stays and is retried next round —
		// severing ring edges on lost messages lets a burst-loss window
		// erode successor lists until the ring fragments into disjoint
		// cycles, which incoming notifies can never rejoin.
		return
	}
	nb, ok := resp.(neighborsResp)
	if !ok {
		return
	}

	// Adopt the successor's predecessor while it sits between us — but
	// only once it answers a neighbors call itself. The successor's pred
	// pointer can dangle at a crashed member; adopting it unconfirmed makes
	// the successor pointer oscillate between the dead candidate and the
	// live successor every other round. Following the pointers back up to
	// succListLen members re-links in one round a successor list that a
	// partition eroded (each call that failed to reach the head dropped
	// one entry).
	for i := 0; i < succListLen && nb.Pred != nil && nb.Pred.Addr != n.self.Addr &&
		n.space.InOO(nb.Pred.ID, n.self.ID, succ.ID); i++ {
		r2, err := n.call(nb.Pred.Addr, kindNeighbors, neighborsReq{})
		if err != nil {
			break
		}
		nb2, ok := r2.(neighborsResp)
		if !ok {
			break
		}
		succ, nb = *nb.Pred, nb2
	}

	// A refused notify, or a predecessor this node holds suspect, asks for
	// the predecessor to be checked: one call either proves it alive or
	// drops it below.
	n.mu.Lock()
	pred, hasPred := n.predLocked()
	check := hasPred && pred.Addr != n.self.Addr && (n.predCheck || n.isSuspect(pred.Addr))
	n.predCheck = false
	n.mu.Unlock()
	predDead := false
	if check {
		_, err := n.call(pred.Addr, kindNeighbors, neighborsReq{})
		predDead = unreachable(err)
	}

	// Rebuild the successor list: succ followed by its list, minus self.
	list := make([]NodeInfo, 0, succListLen)
	list = append(list, succ)
	for _, s := range nb.Succs {
		if len(list) >= succListLen {
			break
		}
		if s.Addr == n.self.Addr || s.Addr == succ.Addr {
			continue
		}
		list = append(list, s)
	}
	n.mu.Lock()
	n.setSuccsLocked(list)
	n.lastSucc = NodeInfo{}
	// Drop a dead predecessor so a live candidate can take its place.
	if cur, ok := n.predLocked(); predDead && ok && cur.Addr == pred.Addr {
		n.setPredLocked(NodeInfo{})
	}
	n.noteTopologyChange()
	n.mu.Unlock()

	_, _ = n.call(succ.Addr, kindNotify, notifyReq{Candidate: n.self})
}

// liveSuccessor returns the first successor-list entry the node does not
// hold suspect (self when alone), without pruning the ones it skips: only
// a failed call drops a successor (noteCallResult). ok is false when the
// node is stopped or holds every entry suspect.
func (n *Node) liveSuccessor() (NodeInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return NodeInfo{}, false
	}
	return n.liveSuccessorLocked()
}

// liveSuccessorLocked is liveSuccessor on a running node, with n.mu held.
func (n *Node) liveSuccessorLocked() (NodeInfo, bool) {
	if len(n.succRefs) == 0 {
		return n.self, true
	}
	for _, ref := range n.succRefs {
		if info := n.arena.Resolve(ref); !n.isSuspect(info.Addr) {
			return info, true
		}
	}
	return NodeInfo{}, false
}

// dropSuccessor removes addr from the head of the successor list, if it
// is there. When the list runs out the node falls back to itself and
// remembers addr as lastSucc, for stabilization to rejoin through.
func (n *Node) dropSuccessor(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if head, ok := n.succHeadLocked(); ok && head.Addr == addr && addr != n.self.Addr {
		n.popSuccLocked()
		if len(n.succRefs) == 0 {
			n.lastSucc = head
			n.setSuccSelfLocked()
		}
		n.noteTopologyChange()
		n.emitf(obsv.KindRepair, "dropped dead successor %s", addr)
	}
}

// RequestContext sends an application-level unicast request to the member
// at addr and returns its response. The remote member must have an
// OnRequest handler configured. Used by layers built on top of multicast,
// e.g. retransmission NACKs in a reliability protocol. The caller's
// context bounds the call, in addition to Config.CallTimeout, whichever
// expires first.
func (n *Node) RequestContext(ctx context.Context, addr string, payload []byte) ([]byte, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil, ErrStopped
	}
	n.mu.Unlock()
	resp, err := n.callWithin(ctx, n.cfg.CallTimeout, addr, kindApp, appReq{Payload: payload})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(appResp)
	if !ok {
		return nil, fmt.Errorf("runtime: bad app response type %T", resp)
	}
	return r.Payload, nil
}
