// Package transport provides the in-memory message transport the dynamic
// runtime runs on: synchronous RPC between named endpoints with injectable
// latency, message loss, node crashes, and network partitions. It stands in
// for the Internet paths between multicast group members; every behaviour a
// test wants to provoke (slow links, dropped control packets, unreachable
// nodes) is injected here rather than mocked in protocol code.
//
// Fault injection comes in two forms: imperative knobs (SetDropRate,
// SetPartition, SetLatency, Unregister) for hand-driven tests, and a
// declarative FaultPlan — a seedable schedule of crash, partition, link
// delay, and burst-loss windows keyed on the network's call counter — for
// deterministic chaos tests.
package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"camcast/internal/obsv"
)

// Common transport errors, matchable with errors.Is.
var (
	// ErrUnreachable reports that the destination endpoint is not
	// registered (crashed, left, or never existed).
	ErrUnreachable = errors.New("transport: endpoint unreachable")
	// ErrDropped reports simulated message loss.
	ErrDropped = errors.New("transport: message dropped")
	// ErrPartitioned reports that the source and destination are in
	// different network partitions.
	ErrPartitioned = errors.New("transport: endpoints partitioned")
)

// Handler processes one incoming request at an endpoint and returns a
// response. Handlers are invoked from the caller's goroutine and must be
// safe for concurrent use.
type Handler func(from, kind string, payload any) (any, error)

// Network is an in-memory network of named endpoints. The zero value is not
// usable; construct with NewNetwork.
//
// A call takes no lock and, unless it simulates a delay, reads no clock.
// It writes one shared word, the call counter, and reads the rest from
// immutable snapshots (an instrumented call also counts itself issued and
// completed, and one in latencySamplePeriod is timed):
//   - The fault knobs (latency, drop rate, partitions, per-link loss and
//     delay, the FaultPlan) form one faultState. Every setter copies the
//     current state, changes the copy and publishes it; a call loads the
//     state once, so it sees one consistent set of faults, and a setter
//     applies to every call that starts after it returns.
//   - Endpoints live in copy-on-write tables (endpointTable): a call that
//     starts after Register or Unregister returned sees the change, so a
//     call to an unregistered address fails with ErrUnreachable.
//   - Loss draws take the seeded rng's own lock, and only when a drop
//     probability is above zero. Sequential calls draw in call order, so a
//     seeded run is reproducible; concurrent calls take their call index
//     and their draw in whatever order they race.
type Network struct {
	_ [cacheLine - 8]byte
	// calls is the call index, the FaultPlan time base and the one word
	// every call writes: it sits alone on its cache line, so the read-only
	// fields below stay shared in every core's cache.
	calls atomic.Uint64
	_     [cacheLine - 8]byte

	faults atomic.Pointer[faultState]
	groups atomic.Pointer[map[uint64]*endpointTable] // group flow label -> table

	// obs holds the metric handles installed by Instrument; the zero value
	// disables all measurement. Like the TCP transport's knobs it is set
	// before first use, so Call reads it without synchronisation.
	obs instruments

	drops atomic.Uint64
	mu    sync.Mutex // serialises the fault setters and registrations
	rngMu sync.Mutex
	rng   *rand.Rand
}

// cacheLine is the coherence unit Network pads its call counter to.
const cacheLine = 64

// faultState is one immutable snapshot of the network's fault knobs. A
// setter publishes a changed copy; nothing writes a published state.
type faultState struct {
	latency   func(from, to string) time.Duration
	dropRate  float64
	partition map[string]int // endpoint -> partition id; missing means 0
	linkLoss  map[link]float64
	linkDelay map[link]time.Duration
	plan      *FaultPlan
}

// NewNetwork creates an empty network. seed drives loss simulation.
func NewNetwork(seed int64) *Network {
	n := &Network{rng: rand.New(rand.NewSource(seed))}
	n.faults.Store(&faultState{})
	n.groups.Store(new(map[uint64]*endpointTable))
	return n
}

// setFaults publishes a copy of the fault state changed by edit. Maps in
// the copy are still shared with the published state: edit must replace a
// map it changes, never write into it.
func (n *Network) setFaults(edit func(*faultState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := *n.faults.Load()
	edit(&next)
	n.faults.Store(&next)
}

// Instrument directs the network's call measurements — round-trip
// latency, in-flight calls, call/error counts — into reg under the
// obsv.Metric* names. Set before first use; nil reverts to no measurement.
func (n *Network) Instrument(reg *obsv.Registry) {
	n.obs = newInstruments(reg)
}

// LabelGroup records a human-readable name for a group's flow label,
// used in the per-group metric names. The in-process network has no
// frame writer, so only the shared group registry is updated; it is
// here so both transports offer the same group surface.
func (n *Network) LabelGroup(gid uint64, name string) { n.obs.groups.setLabel(gid, name) }

// Register attaches a handler at addr in the default group, replacing any
// previous registration.
func (n *Network) Register(addr string, h Handler) { n.RegisterGroup(DefaultGroup, addr, h) }

// Unregister removes the default-group endpoint, making it unreachable (a
// crash or departure as seen by the rest of the network).
func (n *Network) Unregister(addr string) { n.UnregisterGroup(DefaultGroup, addr) }

// RegisterGroup attaches a handler at addr within group gid. The same
// address may host endpoints in any number of groups. Each group has its
// own endpoint table, so a call's lookup is one uint64 map access and one
// shard scan; the group map, like the tables, is copied on write.
func (n *Network) RegisterGroup(gid uint64, addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	groups := *n.groups.Load()
	t := groups[gid]
	if t == nil {
		t = newEndpointTable()
		next := maps.Clone(groups)
		if next == nil {
			next = make(map[uint64]*endpointTable, 1)
		}
		next[gid] = t
		n.groups.Store(&next)
	}
	t.put(addr, h)
}

// UnregisterGroup removes addr's endpoint within group gid.
func (n *Network) UnregisterGroup(gid uint64, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	groups := *n.groups.Load()
	t := groups[gid]
	if t == nil {
		return
	}
	t.remove(addr)
	if t.n == 0 {
		next := maps.Clone(groups)
		delete(next, gid)
		n.groups.Store(&next)
	}
}

// endpoint returns the handler registered at addr within group gid.
func (n *Network) endpoint(gid uint64, addr string) (Handler, bool) {
	t := (*n.groups.Load())[gid]
	if t == nil {
		return nil, false
	}
	return t.lookup(addr)
}

// SetLatency installs a per-link latency function; nil disables latency
// simulation. The function must be safe for concurrent use.
func (n *Network) SetLatency(f func(from, to string) time.Duration) {
	n.setFaults(func(fs *faultState) { fs.latency = f })
}

// SetDropRate makes every call fail with ErrDropped with probability rate
// (clamped to [0, 1]).
func (n *Network) SetDropRate(rate float64) {
	rate = clampRate(rate)
	n.setFaults(func(fs *faultState) { fs.dropRate = rate })
}

func clampRate(rate float64) float64 {
	return min(max(rate, 0), 1)
}

// SetPartition places addr into the given partition. Calls between
// different partitions fail with ErrPartitioned. All endpoints start in
// partition 0. Each call copies the partition table, so placing k
// endpoints one by one costs O(k²).
func (n *Network) SetPartition(addr string, partition int) {
	n.setFaults(func(fs *faultState) {
		fs.partition = withEntry(fs.partition, addr, partition, partition != 0)
	})
}

// HealPartitions returns every endpoint to partition 0 (FaultPlan partition
// windows, which are keyed on the call counter, are unaffected).
func (n *Network) HealPartitions() {
	n.setFaults(func(fs *faultState) { fs.partition = nil })
}

// withEntry returns a copy of m with k set to v, or with k removed when
// keep is false; m itself is never written.
func withEntry[K comparable, V any](m map[K]V, k K, v V, keep bool) map[K]V {
	next := maps.Clone(m)
	if !keep {
		delete(next, k)
		return next
	}
	if next == nil {
		next = make(map[K]V, 1)
	}
	next[k] = v
	return next
}

// link selects one direction of traffic between endpoints; an empty side is
// a wildcard.
type link struct{ from, to string }

// linkMatch returns the largest value among the entries of m matching the
// from->to direction, considering exact and wildcard selectors.
func linkMatch[T interface{ float64 | time.Duration }](m map[link]T, from, to string) T {
	var best T
	if len(m) == 0 {
		return best
	}
	for _, k := range [4]link{{from, to}, {from, ""}, {"", to}, {"", ""}} {
		if v, ok := m[k]; ok && v > best {
			best = v
		}
	}
	return best
}

// SetLinkLoss makes calls on the from->to direction fail with ErrDropped
// with probability rate (clamped to [0, 1]); an empty from or to matches
// any endpoint, and rate 0 removes the entry. Unlike SetDropRate this is
// per-link, so asymmetric failures (A cannot reach B while B still reaches
// A) are expressible. The churn simulator's fault plans drive this knob.
func (n *Network) SetLinkLoss(from, to string, rate float64) {
	rate = clampRate(rate)
	n.setFaults(func(fs *faultState) {
		fs.linkLoss = withEntry(fs.linkLoss, link{from, to}, rate, rate != 0)
	})
}

// SetLinkDelay adds d of latency to every call on the from->to direction;
// an empty from or to matches any endpoint, and d <= 0 removes the entry.
// Slow-receiver scenarios use a to-selector to make one member's inbound
// links crawl without touching the rest of the group.
func (n *Network) SetLinkDelay(from, to string, d time.Duration) {
	n.setFaults(func(fs *faultState) {
		fs.linkDelay = withEntry(fs.linkDelay, link{from, to}, d, d > 0)
	})
}

// ClearLinkFaults removes every per-link loss and delay installed with
// SetLinkLoss/SetLinkDelay.
func (n *Network) ClearLinkFaults() {
	n.setFaults(func(fs *faultState) { fs.linkLoss, fs.linkDelay = nil, nil })
}

// SetFaultPlan installs a deterministic fault schedule; nil removes it.
// The plan's windows are evaluated against the network's call counter (see
// Calls), so installing the same plan at the same point of a deterministic
// protocol run reproduces exactly the same failures.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.setFaults(func(fs *faultState) { fs.plan = p })
}

// Stats returns the total number of calls attempted and dropped so far.
func (n *Network) Stats() (calls, drops uint64) {
	return n.calls.Load(), n.drops.Load()
}

// Calls returns the current call counter, the time base of FaultPlan
// windows: the next Call observes index Calls().
func (n *Network) Calls() uint64 {
	return n.calls.Load()
}

// partitionAt returns addr's partition id at call index step, preferring
// an active plan window over the imperative assignment.
func (fs *faultState) partitionAt(addr string, step uint64) int {
	if p, ok := fs.plan.partitionAt(addr, step); ok {
		return p
	}
	return fs.partition[addr]
}

// lose draws one loss decision at probability p from the seeded rng.
func (n *Network) lose(p float64) bool {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64() < p
}

// Call delivers one request from -> to and returns the handler's response.
// It applies, in order: crash windows, partition checks, loss simulation,
// latency, and endpoint resolution. The handler runs in the caller's
// goroutine. A context deadline bounds the simulated network time (latency
// and injected link delay); it does not interrupt a handler that has
// already been reached, mirroring a real network where a timed-out request
// may still have been processed remotely.
func (n *Network) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	return n.CallGroup(ctx, DefaultGroup, from, to, kind, payload)
}

// CallGroup delivers one request within group gid (see Call). Fault
// injection — crash windows, partitions, loss, latency — applies by
// address, regardless of group: the simulated failure is the host's or the
// link's, and every group sharing it fails together.
func (n *Network) CallGroup(ctx context.Context, gid uint64, from, to, kind string, payload any) (any, error) {
	step := n.calls.Add(1) - 1
	if n.obs.latency == nil {
		return n.dispatch(ctx, step, gid, from, to, kind, payload)
	}
	n.obs.calls.Inc()
	var resp any
	var err error
	if step%latencySamplePeriod == 0 {
		start := time.Since(epoch)
		resp, err = n.dispatch(ctx, step, gid, from, to, kind, payload)
		n.obs.latency.ObserveDuration(time.Since(epoch) - start)
	} else {
		resp, err = n.dispatch(ctx, step, gid, from, to, kind, payload)
	}
	n.obs.completed.Inc()
	if err != nil {
		n.obs.errors.Inc()
	}
	return resp, err
}

// latencySamplePeriod is how many in-process calls share one latency
// sample: the call with index step is timed when step is a multiple of it.
// Timing a call (two clock reads, a bucket add and the sum's CAS) costs
// about as much as the untimed call itself, some 100 ns; timing one call
// in 64 bounds the measurement to under 2 % of the call path, and at 10k
// calls/s still yields about 150 samples a second. The call index picks
// the sample, so which calls are timed is deterministic and choosing
// costs no shared write.
const latencySamplePeriod = 64

// dispatch carries the call with index step. With no simulated delay it
// reads no clock: the only deadline check is ctx.Err(), and a per-RPC
// bound whose instant is not fixed yet (the runtime's deadlineCtx) has
// nothing to report until a transport reads its Deadline.
func (n *Network) dispatch(ctx context.Context, step, gid uint64, from, to, kind string, payload any) (any, error) {
	fs := n.faults.Load()
	if fs.plan.CrashedAt(to, step) || fs.plan.CrashedAt(from, step) {
		return nil, fmt.Errorf("%s -> %s: crashed: %w", from, to, ErrUnreachable)
	}
	if fs.partitionAt(from, step) != fs.partitionAt(to, step) {
		return nil, fmt.Errorf("%s -> %s: %w", from, to, ErrPartitioned)
	}
	drop := fs.dropRate
	if r := fs.plan.lossAt(from, to, step); r > drop {
		drop = r
	}
	if r := linkMatch(fs.linkLoss, from, to); r > drop {
		drop = r
	}
	if drop > 0 && n.lose(drop) {
		n.drops.Add(1)
		return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, ErrDropped)
	}
	h, ok := n.endpoint(gid, to)
	if !ok {
		return nil, fmt.Errorf("%s -> %s: %w", from, to, ErrUnreachable)
	}
	delay := fs.plan.delayAt(from, to, step) + linkMatch(fs.linkDelay, from, to)
	if fs.latency != nil {
		delay += fs.latency(from, to)
	}
	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, err)
	}
	return h(from, kind, payload)
}

// epoch anchors the clock reads of timed calls. A call times itself as two
// offsets from it: each is one monotonic clock read, where time.Now reads
// the wall clock as well.
var epoch = time.Now()

// sleepCtx sleeps for d, or until ctx is done or its deadline passes,
// whichever comes first. The deadline is read from ctx.Deadline(), not
// waited for on Done(): a caller may bound a call with a deadline no timer
// closes Done() for. A sleep clipped at the deadline reports
// context.DeadlineExceeded. It is the in-process transport's only read of
// ctx.Deadline(), so a per-RPC bound that starts at its first Deadline
// read (the runtime's deadlineCtx) starts here, and only on a call with a
// delay to simulate.
func sleepCtx(ctx context.Context, d time.Duration) error {
	clipped := false
	if at, ok := ctx.Deadline(); ok {
		if left := time.Until(at); left < d {
			d, clipped = left, true
		}
	}
	if d > 0 {
		if ctx.Done() == nil {
			time.Sleep(d)
		} else {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if clipped {
		return context.DeadlineExceeded
	}
	return nil
}
