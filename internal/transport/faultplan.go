package transport

import "time"

// FaultKind classifies one scheduled fault.
type FaultKind int

// Supported fault kinds.
const (
	// FaultCrash makes the listed endpoints unreachable (calls to and from
	// them fail with ErrUnreachable) until the event heals.
	FaultCrash FaultKind = iota + 1
	// FaultPartition places the listed endpoints into partition Partition
	// while the event is active; calls across partitions fail.
	FaultPartition
	// FaultDelay adds Delay to every call on the matching link (empty
	// From/To match any endpoint) while the event is active.
	FaultDelay
	// FaultLoss drops calls on the matching link (empty From/To match any
	// endpoint) with probability Rate while the event is active. Leaving
	// both selectors empty gives the original global burst loss; setting
	// only one direction of a link expresses asymmetric failures (A's
	// packets to B vanish while B still reaches A).
	FaultLoss
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultPartition:
		return "partition"
	case FaultDelay:
		return "delay"
	case FaultLoss:
		return "loss"
	default:
		return "unknown"
	}
}

// FaultEvent is one scheduled fault. Time is measured in network call
// index (the running count of Call invocations), which makes schedules
// fully deterministic: the k-th call observes exactly the faults whose
// window covers k, independent of wall-clock timing or goroutine
// interleaving.
type FaultEvent struct {
	Kind FaultKind
	// At is the call index at which the fault activates: the fault applies
	// to calls with index >= At.
	At uint64
	// Until is the call index at which the fault heals (exclusive); 0
	// means the fault never heals.
	Until uint64

	// Addrs lists the victim endpoints (FaultCrash, FaultPartition).
	Addrs []string
	// Partition is the partition id victims move to (FaultPartition).
	Partition int
	// From/To select the link (FaultDelay, FaultLoss); empty matches any
	// endpoint.
	From, To string
	// Delay is the added per-call latency (FaultDelay).
	Delay time.Duration
	// Rate is the drop probability in [0, 1] (FaultLoss).
	Rate float64
}

// active reports whether the event applies to the call with index step.
func (e FaultEvent) active(step uint64) bool {
	return step >= e.At && (e.Until == 0 || step < e.Until)
}

// FaultPlan is a deterministic schedule of faults driven by the network's
// call counter. Install with Network.SetFaultPlan; the same plan against
// the same protocol run and seed reproduces the same failures.
type FaultPlan struct {
	Events []FaultEvent
}

// CrashedAt reports whether addr is inside an active crash window at step.
func (p *FaultPlan) CrashedAt(addr string, step uint64) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind != FaultCrash || !e.active(step) {
			continue
		}
		for _, a := range e.Addrs {
			if a == addr {
				return true
			}
		}
	}
	return false
}

// partitionAt returns the partition id an active partition event assigns to
// addr at step (0 and false when no event covers it).
func (p *FaultPlan) partitionAt(addr string, step uint64) (int, bool) {
	if p == nil {
		return 0, false
	}
	for _, e := range p.Events {
		if e.Kind != FaultPartition || !e.active(step) {
			continue
		}
		for _, a := range e.Addrs {
			if a == addr {
				return e.Partition, true
			}
		}
	}
	return 0, false
}

// lossAt returns the largest burst-loss rate active on the from->to link at
// step. Events with empty From/To keep their original meaning of global
// loss; events naming one or both endpoints apply to that link direction
// only.
func (p *FaultPlan) lossAt(from, to string, step uint64) float64 {
	if p == nil {
		return 0
	}
	rate := 0.0
	for _, e := range p.Events {
		if e.Kind != FaultLoss || !e.active(step) {
			continue
		}
		if (e.From == "" || e.From == from) && (e.To == "" || e.To == to) && e.Rate > rate {
			rate = e.Rate
		}
	}
	return rate
}

// delayAt returns the total active added delay for the from->to link at step.
func (p *FaultPlan) delayAt(from, to string, step uint64) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, e := range p.Events {
		if e.Kind != FaultDelay || !e.active(step) {
			continue
		}
		if (e.From == "" || e.From == from) && (e.To == "" || e.To == to) {
			d += e.Delay
		}
	}
	return d
}
