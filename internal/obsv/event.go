// Package obsv is the live observability layer of the multicast runtime:
// a non-blocking pub/sub event bus for protocol events, a metrics registry
// of atomic counters, gauges and fixed-bucket histograms, and a debug HTTP
// handler that exposes both (plus pprof) on a running daemon.
//
// The paper's evaluation measures tree quality and resilience offline; this
// package is what makes the same signals visible on a *live* group: every
// protocol event (join, forward, retry, repair, loss) flows through a Bus
// that any number of consumers can tail without slowing the emitters, and
// every hot-path quantity (RPC round-trip latency, flush batch sizes,
// lookup hop counts, forwarding outcomes) accumulates in a Registry that
// snapshots to JSON in O(metrics), not O(events).
//
// Design rules, in priority order:
//
//  1. The emit path must cost nothing when nobody is watching: one atomic
//     load, no allocation, no lock.
//  2. A slow consumer must never block a protocol goroutine: each
//     subscriber owns a bounded ring; when it is full, new events are
//     dropped for that subscriber only and counted on its drop counter.
//  3. Metric updates are single atomic operations, safe from any
//     goroutine, with snapshots that never stop the writers.
package obsv

import (
	"fmt"
	"time"
)

// Kind classifies a protocol event. The constants below are the canonical
// event vocabulary.
type Kind string

// Event kinds emitted by the runtime.
const (
	KindJoin      Kind = "join"
	KindLeave     Kind = "leave"
	KindDeliver   Kind = "deliver"
	KindForward   Kind = "forward"
	KindDuplicate Kind = "duplicate"
	KindRepair    Kind = "repair"
	KindLookup    Kind = "lookup"
	// KindRetry records one forwarding retry after a failed child send.
	KindRetry Kind = "retry"
	// KindLost records a multicast segment abandoned after retries and
	// repair both failed: the members of that segment did not receive the
	// message from this node.
	KindLost Kind = "lost"
)

// Event is one protocol event published on a Bus.
type Event struct {
	Seq    uint64    `json:"seq"` // bus-wide emission order, starting at 1
	At     time.Time `json:"at"`
	Node   string    `json:"node"` // address of the node the event happened at
	Kind   Kind      `json:"kind"`
	Detail string    `json:"detail"`
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s (%s)", e.At.Format("15:04:05.000"), e.Node, e.Kind, e.Detail)
}
