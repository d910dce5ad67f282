package obsv

// The metric catalog: every name the instrumented layers register, in one
// place so daemons, dashboards and DESIGN.md agree. Units are encoded in
// the name suffix where they matter (histograms of durations are seconds).
const (
	// Transport (internal/transport, both TCP and the in-memory Network).
	MetricRPCLatency   = "transport.rpc.latency_seconds" // histogram: request/response round trip
	MetricRPCInflight  = "transport.rpc.inflight"        // read-time gauge: calls issued but not yet completed (calls minus latency count)
	MetricRPCCalls     = "transport.rpc.calls"           // counter: calls issued
	MetricRPCErrors    = "transport.rpc.errors"          // counter: calls that returned an error
	MetricFlushBatch   = "transport.flush.batch_frames"  // histogram: frames coalesced per socket flush
	MetricServerServed = "transport.server.requests"     // counter: requests served by accept-side workers

	// Zero-copy data path (shared name between transport and runtime: a
	// TCP member's transport and node write into one registry, so blob
	// materializations from both layers land in one counter).
	MetricBytesSent      = "transport.bytes_sent"      // counter: frame bytes written to sockets
	MetricBytesReceived  = "transport.bytes_received"  // counter: frame bytes read from sockets
	MetricPayloadEncodes = "transport.payload_encodes" // counter: payload materializations (blob builds + per-frame fallback encodes)

	// Multi-group transport sharing: per-group flow accounting on the
	// shared frame writer. One counter per non-default group, named
	// ForGroup(base, label) where label is the group's registered name (or
	// its decimal flow label when unnamed).
	MetricGroupBytesSent    = "transport.group.bytes_sent"    // counter: frame bytes written for one group
	MetricGroupBacklogDrops = "transport.group.backlog_drops" // counter: requests refused by the group's backlog quota

	// Runtime protocol layer (internal/runtime).
	MetricForwardAcked    = "runtime.forward.acked"            // counter: child sends acknowledged
	MetricForwardRetries  = "runtime.forward.retries"          // counter: child sends retried
	MetricForwardRepaired = "runtime.forward.repaired"         // counter: orphan segments handed to a live node
	MetricForwardLost     = "runtime.forward.lost"             // counter: segments abandoned
	MetricDuplicates      = "runtime.duplicates"               // counter: duplicate deliveries/offers suppressed
	MetricDelivered       = "runtime.delivered"                // counter: multicast deliveries to the application
	MetricLookupHops      = "runtime.lookup.hops"              // histogram: hops per completed lookup
	MetricMulticastTime   = "runtime.multicast.tree_seconds"   // histogram: full dissemination-tree completion time at the source
	MetricEventsDropped   = "runtime.events.subscriber_drops"  // counter: bus events dropped across detached rings (daemon-level)
	MetricSegmentSpread   = "runtime.multicast.spread_seconds" // histogram: per-node segment spread time, observed only for spreads with a child to send to
	MetricJoinTime        = "runtime.join.seconds"             // histogram: wall time for Join (bootstrap lookup + first stabilize)
	MetricLeaveTime       = "runtime.leave.seconds"            // histogram: wall time for a graceful Leave's splice-out RPCs

	// Sharded maintenance scheduler (internal/runtime.Scheduler).
	MetricSchedMembers = "runtime.sched.members" // gauge: members currently owned by the scheduler
	MetricSchedRounds  = "runtime.sched.rounds"  // counter: maintenance callbacks executed (stabilize + fix + sweeps)
)

// ForGroup derives the registry name of a per-group metric: the base
// catalog name with the group label appended.
func ForGroup(metric, group string) string { return metric + "." + group }
