package main

import (
	"camcast/internal/obsv"
)

// metricDef names one reported metric. Moves says which end-to-end metric a
// per-layer metric should move, and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics of an untraced run, as a user of a group sees
// them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "mcast_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mcast_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "deliveries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_delivery", Unit: "us", Better: "lower"},
	{Name: "allocs_per_delivery", Unit: "count", Better: "lower"},
	{Name: "bytes_per_member", Unit: "B", Better: "lower"},
	{Name: "delivery_ratio", Unit: "ratio", Better: "higher"},
}

// perLayer are the metrics of a traced run, one layer boundary each.
var perLayer = []metricDef{
	{"runtime.mcast_call_ms_p50", "ms", "lower", "deliveries_per_s on all workloads, most on koorde-mem-2k"},
	{"runtime.self_us_per_delivery", "us", "lower", "cpu_us_per_delivery on chord-mem-4k and koorde-mem-2k"},
	{"runtime.self_us_p50.multicast", "us", "lower", "mcast_p50_ms on chord-mem-4k"},
	{"runtime.self_us_p50.flood", "us", "lower", "mcast_p50_ms on koorde-mem-2k"},
	{"runtime.self_us_p50.offer", "us", "lower", "deliveries_per_s on koorde-mem-2k"},
	{"runtime.self_us_p50.find_successor", "us", "lower", "mcast_p50_ms on chord-mem-4k"},
	{"runtime.bulk_install_s", "s", "lower", "setup_s on chord-mem-4k and koorde-mem-2k"},
	{"runtime.verify_round_s", "s", "lower", "setup_s on chord-tcp-64"},
	{"runtime.retries_per_delivery", "count", "lower", "delivery_ratio and mcast_p95_ms on all workloads (0 on a stable ring)"},
	{"runtime.duplicates_per_delivery", "count", "lower", "deliveries_per_s on koorde-mem-2k"},
	{"transport.calls_per_delivery.multicast", "count", "lower", "deliveries_per_s and cpu_us_per_delivery on the chord workloads"},
	{"transport.calls_per_delivery.flood", "count", "lower", "deliveries_per_s and cpu_us_per_delivery on koorde-mem-2k"},
	{"transport.calls_per_delivery.offer", "count", "lower", "deliveries_per_s and cpu_us_per_delivery on koorde-mem-2k"},
	{"transport.calls_per_delivery.find_successor", "count", "lower", "deliveries_per_s and cpu_us_per_delivery on chord-mem-4k"},
	{"transport.self_us_p50.multicast", "us", "lower", "mcast_p50_ms, most on chord-tcp-64, little on mem"},
	{"transport.self_us_per_delivery", "us", "lower", "cpu_us_per_delivery on all workloads"},
	{"transport.wire_bytes_per_delivery", "B", "lower", "deliveries_per_s on chord-tcp-64, most on bulk-tcp-16 when run by name"},
	{"transport.frames_per_flush", "count", "higher", "cpu_us_per_delivery on chord-tcp-64"},
	{"transport.conns_open", "count", "lower", "bytes_per_member and setup_s on chord-tcp-64"},
	{"transport.call_errors", "count", "lower", "delivery_ratio on all workloads"},
	{"goruntime.gc_cpu_fraction", "ratio", "lower", "cpu_us_per_delivery and mcast_p95_ms on all workloads"},
	{"goruntime.alloc_bytes_per_delivery", "B", "lower", "cpu_us_per_delivery on all workloads"},
	{"goruntime.goroutines", "count", "lower", "bytes_per_member on chord-tcp-64"},
	{"sched.rounds", "count", "lower", "cpu_us_per_delivery on chord-tcp-64"},
	{"trace.untraced_deliveries_per_s", "1/s", "higher", "deliveries_per_s on the same workload: the base of trace.overhead_pct"},
	{"trace.traced_deliveries_per_s", "1/s", "higher", "deliveries_per_s on the same workload, with spans recorded"},
	{"trace.overhead_pct", "%", "lower", "nothing: how much slower the traced half ran than the untraced half"},
	{"trace.spans", "count", "higher", "nothing: spans recorded in the traced half"},
}

// layerValues computes the per-layer metrics of a traced run from the
// traced phase, its spans and the untraced phase before it.
func layerValues(g *group, untraced, traced phase, tree spanTree, goroutines int) map[string]float64 {
	d := traced.deliveries()
	self := tree.self
	var (
		runtimeSelf, transportSelf int64
		mcastMs                    []float64
		handlerSelfUs              [numKinds][]float64
		callSelfUs                 [numKinds][]float64
		calls                      [numKinds]int64
	)
	for i, s := range tree.spans {
		switch s.layer {
		case layerMcast:
			runtimeSelf += self[i]
			mcastMs = append(mcastMs, float64(s.end-s.start)/1e6)
		case layerHandler:
			runtimeSelf += self[i]
			handlerSelfUs[s.kind] = append(handlerSelfUs[s.kind], float64(self[i])/1e3)
		case layerCall:
			transportSelf += self[i]
			calls[s.kind]++
			callSelfUs[s.kind] = append(callSelfUs[s.kind], float64(self[i])/1e3)
		}
	}
	flush := traced.regDelta.Histograms[obsv.MetricFlushBatch]
	framesPerFlush := 0.0
	if flush.Count > 0 {
		framesPerFlush = flush.Sum / float64(flush.Count)
	}
	untracedRate, tracedRate := untraced.deliveriesPerSec(), traced.deliveriesPerSec()
	overhead := 0.0
	if tracedRate > 0 {
		overhead = (untracedRate/tracedRate - 1) * 100
	}
	return map[string]float64{
		"runtime.mcast_call_ms_p50":                   percentile(mcastMs, 50),
		"runtime.self_us_per_delivery":                perUnit(float64(runtimeSelf)/1e3, d),
		"runtime.self_us_p50.multicast":               percentile(handlerSelfUs[kindMulticast], 50),
		"runtime.self_us_p50.flood":                   percentile(handlerSelfUs[kindFlood], 50),
		"runtime.self_us_p50.offer":                   percentile(handlerSelfUs[kindOffer], 50),
		"runtime.self_us_p50.find_successor":          percentile(handlerSelfUs[kindFindSucc], 50),
		"runtime.bulk_install_s":                      g.bulkInstall.Seconds(),
		"runtime.verify_round_s":                      g.verifyRound.Seconds(),
		"runtime.retries_per_delivery":                perUnit(float64(traced.stats.Retries), d),
		"runtime.duplicates_per_delivery":             perUnit(float64(traced.stats.Duplicates), d),
		"transport.calls_per_delivery.multicast":      perUnit(float64(calls[kindMulticast]), d),
		"transport.calls_per_delivery.flood":          perUnit(float64(calls[kindFlood]), d),
		"transport.calls_per_delivery.offer":          perUnit(float64(calls[kindOffer]), d),
		"transport.calls_per_delivery.find_successor": perUnit(float64(calls[kindFindSucc]), d),
		"transport.self_us_p50.multicast":             percentile(callSelfUs[kindMulticast], 50),
		"transport.self_us_per_delivery":              perUnit(float64(transportSelf)/1e3, d),
		"transport.wire_bytes_per_delivery":           perUnit(float64(traced.regDelta.Counters[obsv.MetricBytesSent]), d),
		"transport.frames_per_flush":                  framesPerFlush,
		"transport.conns_open":                        float64(g.connsOpen()),
		"transport.call_errors":                       float64(traced.regDelta.Counters[obsv.MetricRPCErrors]),
		"goruntime.gc_cpu_fraction":                   traced.proc.gcFraction,
		"goruntime.alloc_bytes_per_delivery":          perUnit(float64(traced.proc.allocBytes), d),
		"goruntime.goroutines":                        float64(goroutines),
		"sched.rounds":                                float64(traced.regDelta.Counters[obsv.MetricSchedRounds]),
		"trace.untraced_deliveries_per_s":             untracedRate,
		"trace.traced_deliveries_per_s":               tracedRate,
		"trace.overhead_pct":                          overhead,
		"trace.spans":                                 float64(len(tree.spans)),
	}
}
