package transport

import (
	"strconv"
	"sync"

	"camcast/internal/obsv"
)

// instruments caches the registry handles a transport updates on its hot
// paths, resolved once at Instrument time. The zero value (all nil) is
// fully inert: every instrument method is nil-safe, and Call gates its
// timing work on the latency handle, so an uninstrumented transport pays
// exactly one pointer check per call — the <5% round-trip budget on the
// pipelined benchmark depends on this.
type instruments struct {
	latency *obsv.Histogram // request/response round trip, seconds
	calls   *obsv.Counter   // calls issued
	errors  *obsv.Counter   // calls that returned an error
	flush   *obsv.Histogram // frames coalesced per socket flush
	served  *obsv.Counter   // requests served by accept-side workers

	bytesSent *obsv.Counter // frame bytes written to sockets (incl. length prefixes)
	bytesRecv *obsv.Counter // frame bytes read from sockets (incl. length prefixes)
	// encodes counts payload materializations: blobs built at origination or
	// on the serving side, plus per-frame fallback encodes of a blob-capable
	// payload that arrived without its blob. On the zero-copy path it grows
	// by exactly one per message per node, independent of fan-out.
	encodes *obsv.Counter

	// groups resolves per-group flow counters lazily; nil (the
	// uninstrumented zero value) disables per-group accounting entirely.
	// A pointer, unlike the flat handles above, because instruments is
	// copied by value into frame writers and the resolver carries a mutex.
	groups *groupMetrics
}

func newInstruments(reg *obsv.Registry) instruments {
	if reg == nil {
		return instruments{}
	}
	latency := reg.Histogram(obsv.MetricRPCLatency, obsv.LatencyBuckets)
	calls := reg.Counter(obsv.MetricRPCCalls)
	// In-flight calls are derived at snapshot time rather than counted up
	// and down on every call: a call counts itself before it starts and
	// observes its latency when it ends. The latency count is read first,
	// so a call finishing between the two reads cannot make it negative.
	reg.GaugeFunc(obsv.MetricRPCInflight, func() int64 {
		done := latency.Count()
		return int64(calls.Load() - done)
	})
	return instruments{
		latency: latency,
		calls:   calls,
		errors:  reg.Counter(obsv.MetricRPCErrors),
		flush:   reg.Histogram(obsv.MetricFlushBatch, obsv.CountBuckets(32)),
		served:  reg.Counter(obsv.MetricServerServed),

		bytesSent: reg.Counter(obsv.MetricBytesSent),
		bytesRecv: reg.Counter(obsv.MetricBytesReceived),
		encodes:   reg.Counter(obsv.MetricPayloadEncodes),

		groups: &groupMetrics{
			reg:   reg,
			names: make(map[uint64]string),
			insts: make(map[uint64]*groupInstruments),
		},
	}
}

// groupMetrics resolves one groupInstruments per flow label, naming the
// counters after the group's registered label (LabelGroup) or its decimal
// flow label. All methods are nil-safe: an uninstrumented transport carries
// a nil resolver and pays one pointer check.
type groupMetrics struct {
	reg *obsv.Registry

	mu    sync.Mutex
	names map[uint64]string
	insts map[uint64]*groupInstruments
}

type groupInstruments struct {
	bytesSent *obsv.Counter // frame bytes written for this group
	drops     *obsv.Counter // requests refused by the backlog quota
}

// setLabel names gid's metrics. Dropping any already-resolved handles makes
// later increments land under the new name (counts accrued under the old
// name stay where they were).
func (g *groupMetrics) setLabel(gid uint64, name string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.names[gid] = name
	delete(g.insts, gid)
}

// get returns gid's instruments, resolving them on first use. The default
// group is deliberately unaccounted — its traffic is the transport-wide
// bytes_sent counter, and skipping it keeps single-group registries free of
// group-suffixed names.
func (g *groupMetrics) get(gid uint64) *groupInstruments {
	if g == nil || gid == DefaultGroup {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	gi := g.insts[gid]
	if gi == nil {
		label := g.names[gid]
		if label == "" {
			label = strconv.FormatUint(gid, 10)
		}
		gi = &groupInstruments{
			bytesSent: g.reg.Counter(obsv.ForGroup(obsv.MetricGroupBytesSent, label)),
			drops:     g.reg.Counter(obsv.ForGroup(obsv.MetricGroupBacklogDrops, label)),
		}
		g.insts[gid] = gi
	}
	return gi
}
