package runtime

import (
	"fmt"

	"camcast/internal/obsv"
)

// nodeObs caches a node's observability handles: the live event bus plus
// the registry instruments updated on protocol hot paths. Instrument
// pointers are resolved once at construction and every one of them is
// nil-safe, so an uninstrumented node pays only nil checks — no map
// lookups, no branches on configuration.
type nodeObs struct {
	bus *obsv.Bus

	delivered  *obsv.Counter
	duplicates *obsv.Counter
	acked      *obsv.Counter
	retries    *obsv.Counter
	repaired   *obsv.Counter
	lost       *obsv.Counter

	lookupHops *obsv.Histogram // hops per locally initiated lookup
	treeTime   *obsv.Histogram // full dissemination-tree time at the source
	spreadTime *obsv.Histogram // per-node segment spread time
	joinTime   *obsv.Histogram // Join wall time (lookup + first stabilize)
	leaveTime  *obsv.Histogram // graceful-Leave wall time (splice-out RPCs)

	// encodes counts payload blobs this node materialized at origination.
	// It shares its metric name with the transport's serving-side count (a
	// member's node and transport write into one registry), so the total is
	// every payload materialization on this member — which the zero-copy
	// path keeps at one per message regardless of fan-out.
	encodes *obsv.Counter
}

func newNodeObs(bus *obsv.Bus, reg *obsv.Registry) nodeObs {
	return nodeObs{
		bus:        bus,
		delivered:  reg.Counter(obsv.MetricDelivered),
		duplicates: reg.Counter(obsv.MetricDuplicates),
		acked:      reg.Counter(obsv.MetricForwardAcked),
		retries:    reg.Counter(obsv.MetricForwardRetries),
		repaired:   reg.Counter(obsv.MetricForwardRepaired),
		lost:       reg.Counter(obsv.MetricForwardLost),
		lookupHops: reg.Histogram(obsv.MetricLookupHops, obsv.HopBuckets),
		treeTime:   reg.Histogram(obsv.MetricMulticastTime, obsv.LatencyBuckets),
		spreadTime: reg.Histogram(obsv.MetricSegmentSpread, obsv.LatencyBuckets),
		joinTime:   reg.Histogram(obsv.MetricJoinTime, obsv.LatencyBuckets),
		leaveTime:  reg.Histogram(obsv.MetricLeaveTime, obsv.LatencyBuckets),
		encodes:    reg.Counter(obsv.MetricPayloadEncodes),
	}
}

// emit publishes one protocol event to the live bus.
func (n *Node) emit(kind obsv.Kind, detail string) {
	n.obs.bus.Emit(n.self.Addr, kind, detail)
}

// emitf is emit with lazy formatting: the detail string is built only when
// a bus subscriber is watching, so unobserved protocol paths skip the fmt
// call entirely. That guard alone does not keep a hot path allocation-free:
// emitf's variadic args box into a []any at the call site before the guard
// runs. Hot paths (deliver, duplicate suppression, the forward/flood ack
// turns) therefore wrap their emitf calls in an `if n.obs.bus.Active()` of
// their own, which moves the boxing behind the check — what the 0
// allocs/op dissemination gates measure.
func (n *Node) emitf(kind obsv.Kind, format string, args ...any) {
	if !n.obs.bus.Active() {
		return
	}
	n.emit(kind, fmt.Sprintf(format, args...))
}
