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
	"math/rand"
	"sync"
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
type Network struct {
	mu        sync.RWMutex
	endpoints map[uint64]map[string]Handler // group flow label -> addr -> handler
	latency   func(from, to string) time.Duration
	dropRate  float64
	partition map[string]int // endpoint -> partition id; missing means 0
	linkLoss  map[link]float64
	linkDelay map[link]time.Duration
	plan      *FaultPlan
	rng       *rand.Rand
	calls     uint64
	drops     uint64

	// obs holds the metric handles installed by Instrument; the zero value
	// disables all measurement. Like the TCP transport's knobs it is set
	// before first use, so Call reads it without the lock.
	obs instruments
}

// NewNetwork creates an empty network. seed drives loss simulation.
func NewNetwork(seed int64) *Network {
	return &Network{
		endpoints: make(map[uint64]map[string]Handler),
		partition: make(map[string]int),
		rng:       rand.New(rand.NewSource(seed)),
	}
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
// address may host endpoints in any number of groups. The table is nested
// (label, then address) rather than struct-keyed so the per-call lookup
// stays on the runtime's inlined uint64/string map fast paths — a
// struct-keyed map calls out to a generated hash func, and that extra
// frame is what repeatedly grew the short-lived fan-out goroutines' stacks.
func (n *Network) RegisterGroup(gid uint64, addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	eps := n.endpoints[gid]
	if eps == nil {
		eps = make(map[string]Handler)
		n.endpoints[gid] = eps
	}
	eps[addr] = h
}

// UnregisterGroup removes addr's endpoint within group gid.
func (n *Network) UnregisterGroup(gid uint64, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	eps := n.endpoints[gid]
	delete(eps, addr)
	if len(eps) == 0 {
		delete(n.endpoints, gid)
	}
}

// SetLatency installs a per-link latency function; nil disables latency
// simulation. The function must be safe for concurrent use.
func (n *Network) SetLatency(f func(from, to string) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = f
}

// SetDropRate makes every call fail with ErrDropped with probability rate
// (clamped to [0, 1]).
func (n *Network) SetDropRate(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.dropRate = rate
}

// SetPartition places addr into the given partition. Calls between
// different partitions fail with ErrPartitioned. All endpoints start in
// partition 0.
func (n *Network) SetPartition(addr string, partition int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if partition == 0 {
		delete(n.partition, addr)
		return
	}
	n.partition[addr] = partition
}

// HealPartitions returns every endpoint to partition 0 (FaultPlan partition
// windows, which are keyed on the call counter, are unaffected).
func (n *Network) HealPartitions() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
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
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate == 0 {
		delete(n.linkLoss, link{from, to})
		return
	}
	if n.linkLoss == nil {
		n.linkLoss = make(map[link]float64)
	}
	n.linkLoss[link{from, to}] = rate
}

// SetLinkDelay adds d of latency to every call on the from->to direction;
// an empty from or to matches any endpoint, and d <= 0 removes the entry.
// Slow-receiver scenarios use a to-selector to make one member's inbound
// links crawl without touching the rest of the group.
func (n *Network) SetLinkDelay(from, to string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.linkDelay, link{from, to})
		return
	}
	if n.linkDelay == nil {
		n.linkDelay = make(map[link]time.Duration)
	}
	n.linkDelay[link{from, to}] = d
}

// ClearLinkFaults removes every per-link loss and delay installed with
// SetLinkLoss/SetLinkDelay.
func (n *Network) ClearLinkFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLoss = nil
	n.linkDelay = nil
}

// SetFaultPlan installs a deterministic fault schedule; nil removes it.
// The plan's windows are evaluated against the network's call counter (see
// Calls), so installing the same plan at the same point of a deterministic
// protocol run reproduces exactly the same failures.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.plan = p
}

// Stats returns the total number of calls attempted and dropped so far.
func (n *Network) Stats() (calls, drops uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.calls, n.drops
}

// Calls returns the current call counter, the time base of FaultPlan
// windows: the next Call observes index Calls().
func (n *Network) Calls() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.calls
}

// effectivePartition returns addr's partition id at call index step,
// preferring an active plan window over the imperative assignment.
func (n *Network) effectivePartition(addr string, step uint64) int {
	if p, ok := n.plan.partitionAt(addr, step); ok {
		return p
	}
	return n.partition[addr]
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
	if n.obs.latency == nil {
		return n.dispatch(ctx, gid, from, to, kind, payload, time.Time{})
	}
	n.obs.calls.Inc()
	n.obs.inflight.Add(1)
	start := time.Now()
	resp, err := n.dispatch(ctx, gid, from, to, kind, payload, start)
	n.obs.inflight.Add(-1)
	n.obs.latency.ObserveDuration(time.Since(start))
	if err != nil {
		n.obs.errors.Inc()
	}
	return resp, err
}

// dispatch carries one call. now is the time the call started, when the
// caller already read it (zero otherwise): with no simulated delay it is
// the instant the deadline is checked against, so a call reads the clock
// no more than it must.
func (n *Network) dispatch(ctx context.Context, gid uint64, from, to, kind string, payload any, now time.Time) (any, error) {
	n.mu.Lock()
	step := n.calls
	n.calls++
	if n.plan.CrashedAt(to, step) || n.plan.CrashedAt(from, step) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%s -> %s: crashed: %w", from, to, ErrUnreachable)
	}
	if n.effectivePartition(from, step) != n.effectivePartition(to, step) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%s -> %s: %w", from, to, ErrPartitioned)
	}
	drop := n.dropRate
	if r := n.plan.lossAt(from, to, step); r > drop {
		drop = r
	}
	if r := linkMatch(n.linkLoss, from, to); r > drop {
		drop = r
	}
	if drop > 0 && n.rng.Float64() < drop {
		n.drops++
		n.mu.Unlock()
		return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, ErrDropped)
	}
	h, ok := n.endpoints[gid][to]
	latency := n.latency
	delay := n.plan.delayAt(from, to, step) + linkMatch(n.linkDelay, from, to)
	n.mu.Unlock()

	if !ok {
		return nil, fmt.Errorf("%s -> %s: %w", from, to, ErrUnreachable)
	}
	if latency != nil {
		delay += latency(from, to)
	}
	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, err)
		}
		now = time.Time{} // the sleep moved the clock on
	}
	if err := ctxErrAt(ctx, now); err != nil {
		return nil, fmt.Errorf("%s -> %s (%s): %w", from, to, kind, err)
	}
	return h(from, kind, payload)
}

// ctxErrAt is ctx.Err() with the deadline judged at now (read here when
// zero): the caller's cancellation first, then context.DeadlineExceeded
// once now has reached ctx's deadline.
func ctxErrAt(ctx context.Context, now time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	at, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	if now.IsZero() {
		now = time.Now()
	}
	if !now.Before(at) {
		return context.DeadlineExceeded
	}
	return nil
}

// sleepCtx sleeps for d, or until ctx is done or its deadline passes,
// whichever comes first. The deadline is read from ctx.Deadline(), not
// waited for on Done(): a caller may bound a call with a deadline no timer
// closes Done() for. A sleep clipped at the deadline reports
// context.DeadlineExceeded.
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
