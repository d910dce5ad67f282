// Package churnsim evaluates the dynamic runtime under membership churn:
// members join, leave and crash according to a workload schedule while
// probe multicasts measure delivery. This is the dynamic counterpart of the
// paper's static evaluation and exercises its closing claim (Section 7):
// "CAM-Chord works better with relatively small frequency of membership
// change ... CAM-Koorde works better with relatively large frequency of
// membership change and large node capacities."
//
// Churn speed is modeled by the maintenance budget: the number of
// stabilize/fix rounds the protocol is granted between consecutive
// membership events. A small budget means members come and go faster than
// the overlay can repair — fast churn; a large budget is slow churn.
package churnsim

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/replay"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/transport"
	"camcast/internal/workload"
)

// Config parameterizes one churn run.
type Config struct {
	Mode       runtime.Mode
	Initial    int     // members alive before churn starts
	Events     int     // membership events to apply
	JoinFrac   float64 // fraction of events that are joins
	FailFrac   float64 // fraction of departures that are crashes (vs graceful leaves)
	CapacityLo int     // member capacities drawn uniformly from [lo, hi]
	CapacityHi int
	Bits       uint // identifier space width
	Seed       int64

	// MaintenanceBudget is the number of (stabilize + fix) rounds granted
	// to every live member between consecutive membership events. 0 means
	// the overlay never repairs during churn — the fastest possible churn.
	MaintenanceBudget int
	// BulkInitial builds the initial membership with runtime.BulkInstall
	// (sorted-array ring construction plus one verification round) instead
	// of incremental joins with per-join maintenance. Recorded as a single
	// bulk-join log record; churn events always use the incremental paths.
	BulkInitial bool
	// ProbeEvery sends a probe multicast from a random live member every
	// this many events (and once at the end). Default 10.
	ProbeEvery int

	// Transport selects how members talk: "mem" (default) runs every
	// member on one in-process simulated network; "tcp" gives each member
	// its own real loopback TCP listener, exercising the multiplexed
	// transport (connection pooling, pipelining, failure suspicion) under
	// churn.
	Transport string

	// Bus and Metrics, when set, instrument every member the simulation
	// creates (and its transports): protocol events flow to Bus, hot-path
	// quantities accumulate in Metrics. camchurn's -debug-addr serves
	// both live while the sweep runs.
	Bus     *obsv.Bus
	Metrics *obsv.Registry

	// Schedule, when non-nil, replaces the generated workload schedule:
	// Events/JoinFrac/FailFrac are ignored and the given events run
	// verbatim. Scenario scripts (internal/scenario) compose schedules
	// this way; sweeps leave it nil.
	Schedule []workload.Event
	// Faults optionally schedules composite failures — correlated
	// crashes, lossy or slow links, partitions — against the run, keyed
	// on the event-step clock. Link and partition faults require the mem
	// transport.
	Faults *FaultPlan
	// Record, when set, receives the run's full input schedule as a
	// versioned NDJSON replay log (see internal/replay): every join,
	// leave, crash, maintenance round, probe submission, and applied
	// fault action, plus the seeds needed to re-create the cluster.
	Record io.Writer
	// Label names the run in the replay log header (typically the
	// scenario name).
	Label string
}

func (c *Config) applyDefaults() {
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 10
	}
	if c.Bits == 0 {
		c.Bits = 20
	}
}

func (c *Config) validate() error {
	if c.Initial < 2 {
		return fmt.Errorf("churnsim: need at least 2 initial members, got %d", c.Initial)
	}
	if c.Events < 0 {
		return fmt.Errorf("churnsim: negative event count %d", c.Events)
	}
	minCap := 2
	if c.Mode == runtime.ModeCAMKoorde {
		minCap = 4
	}
	if c.CapacityLo < minCap || c.CapacityHi < c.CapacityLo {
		return fmt.Errorf("churnsim: capacity range [%d,%d] invalid for %v", c.CapacityLo, c.CapacityHi, c.Mode)
	}
	if c.MaintenanceBudget < 0 {
		return fmt.Errorf("churnsim: negative maintenance budget")
	}
	switch c.Transport {
	case "", "mem", "tcp":
	default:
		return fmt.Errorf("churnsim: unknown transport %q (want mem or tcp)", c.Transport)
	}
	if err := c.Faults.validate(c.Transport); err != nil {
		return err
	}
	return nil
}

// Result summarizes one churn run.
type Result struct {
	Events   int
	Probes   int
	Joins    int
	Leaves   int
	Crashes  int
	FinalLiv int // live members at the end

	// DeliveryRatios holds, per probe, delivered/live (1.0 = every live
	// member got the probe).
	DeliveryRatios []float64
	MeanDelivery   float64
	MinDelivery    float64

	// RingCorrect is the fraction of live members whose successor pointer
	// was exactly right at the end of the run (after the trailing probe,
	// before any extra repair).
	RingCorrect float64

	// Aggregated protocol counters across all members that ever lived.
	Duplicates  uint64
	TableFaults uint64
	Forwarded   uint64

	// Forwarding-outcome accounting aggregated the same way: how much of
	// the delivery ratio was earned by the retry/repair engine, and how
	// much was genuinely abandoned.
	Retries          uint64
	SegmentsRepaired uint64
	SegmentsLost     uint64
}

// collector tallies deliveries per message across the whole group.
type collector struct {
	mu  sync.Mutex
	got map[string]int
}

func (c *collector) add(msgID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got[msgID]++
}

func (c *collector) count(msgID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[msgID]
}

// Run executes one churn simulation.
func Run(cfg Config) (Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}

	schedule := cfg.Schedule
	if schedule == nil {
		var err error
		schedule, err = workload.Schedule(workload.ChurnConfig{
			Seed:     cfg.Seed,
			Events:   cfg.Events,
			JoinFrac: cfg.JoinFrac,
			FailFrac: cfg.FailFrac,
			Initial:  cfg.Initial,
		})
		if err != nil {
			return Result{}, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	useTCP := cfg.Transport == "tcp"
	if useTCP {
		runtime.RegisterWireTypes()
	}
	var net *transport.Network
	if !useTCP {
		net = transport.NewNetwork(cfg.Seed + 2)
		if cfg.Metrics != nil {
			net.Instrument(cfg.Metrics)
		}
	}
	// The recorder mirrors every input the run consumes into a replay log.
	// A nil *replay.Recorder discards, so the run threads it everywhere
	// unconditionally. NetSeed must match the mem network seed above for
	// the replayed loss schedule to be the recorded one.
	var rec *replay.Recorder
	if cfg.Record != nil {
		rec = replay.NewRecorder(cfg.Record, replay.Header{
			Mode:     cfg.Mode.String(),
			Bits:     cfg.Bits,
			NetSeed:  cfg.Seed + 2,
			Scenario: cfg.Label,
			Seed:     cfg.Seed,
		})
	}
	space, err := ring.NewSpace(cfg.Bits)
	if err != nil {
		return Result{}, err
	}
	col := &collector{got: make(map[string]int)}

	var (
		res   Result
		alive = make(map[int]*runtime.Node)
		all   []*runtime.Node
		// tcps maps member index to its private TCP transport (tcp mode):
		// crashing or leaving a member also tears its listener down, the
		// way a dying process would.
		tcps = make(map[int]*transport.TCP)
	)
	defer func() {
		for _, n := range alive {
			n.Stop()
		}
		for _, tr := range tcps {
			tr.Close()
		}
	}()

	// newNode creates member idx. capOverride > 0 pins the capacity
	// (scenario capacity flaps); otherwise it is drawn from the configured
	// range. The chosen capacity is returned for the replay log.
	newNode := func(idx, capOverride int) (*runtime.Node, int, error) {
		capacity := capOverride
		if capacity <= 0 {
			capacity = cfg.CapacityLo + rng.Intn(cfg.CapacityHi-cfg.CapacityLo+1)
		}
		rcfg := runtime.Config{
			Space:     space,
			Mode:      cfg.Mode,
			Capacity:  capacity,
			OnDeliver: func(d runtime.Delivery) { col.add(d.MsgID) },
			Bus:       cfg.Bus,
			Metrics:   cfg.Metrics,
		}
		if !useTCP {
			node, err := runtime.NewNode(net, fmt.Sprintf("member-%d", idx), rcfg)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, node)
			return node, capacity, nil
		}
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		tr.DialTimeout = 500 * time.Millisecond
		tr.RPCTimeout = time.Second
		if cfg.Metrics != nil {
			tr.Instrument(cfg.Metrics)
		}
		node, err := runtime.NewNode(tr, tr.Addr(), rcfg)
		if err != nil {
			tr.Close()
			return nil, 0, err
		}
		tcps[idx] = tr
		all = append(all, node)
		return node, capacity, nil
	}

	dropTransport := func(idx int) {
		if tr, ok := tcps[idx]; ok {
			tr.Close()
			delete(tcps, idx)
		}
	}

	liveIdxs := func() []int {
		idxs := make([]int, 0, len(alive))
		for i := range alive {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		return idxs
	}
	liveNodes := func() []*runtime.Node {
		idxs := liveIdxs()
		out := make([]*runtime.Node, 0, len(idxs))
		for _, i := range idxs {
			out = append(out, alive[i])
		}
		return out
	}

	maintain := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, n := range liveNodes() {
				n.StabilizeOnce()
			}
			for _, n := range liveNodes() {
				n.FixOnce()
			}
		}
	}

	probe := func() error {
		idxs := liveIdxs()
		if len(idxs) == 0 {
			return fmt.Errorf("churnsim: no live members left to probe (fault plan crashed everyone?)")
		}
		srcIdx := idxs[rng.Intn(len(idxs))]
		rec.Multicast(srcIdx, []byte("probe"))
		msgID, err := alive[srcIdx].Multicast([]byte("probe"))
		if err != nil {
			return err
		}
		ratio := float64(col.count(msgID)) / float64(len(idxs))
		if ratio > 1 {
			ratio = 1 // defensive; duplicate suppression should prevent this
		}
		res.DeliveryRatios = append(res.DeliveryRatios, ratio)
		res.Probes++
		return nil
	}

	// Bootstrap the initial membership fully converged.
	if cfg.BulkInitial {
		// Assisted construction: every initial member exists up front, so
		// the ring is installed from the sorted identifier array in one
		// step and verified with a single full maintenance round. Serial
		// install order keeps the trace (and any recorded log) replayable.
		members := make([]*runtime.Node, 0, cfg.Initial)
		idxs := make([]int, 0, cfg.Initial)
		caps := make([]int, 0, cfg.Initial)
		for i := 0; i < cfg.Initial; i++ {
			n, capi, err := newNode(i, 0)
			if err != nil {
				return Result{}, err
			}
			members = append(members, n)
			idxs = append(idxs, i)
			caps = append(caps, capi)
		}
		if err := runtime.BulkInstall(members, runtime.BulkOptions{Parallelism: 1}); err != nil {
			return Result{}, fmt.Errorf("churnsim: bulk initial membership: %w", err)
		}
		for i, n := range members {
			alive[idxs[i]] = n
		}
		rec.BulkJoin(idxs, caps)
		for _, n := range liveNodes() {
			n.StabilizeOnce()
		}
		for _, n := range liveNodes() {
			n.FixAll()
		}
		rec.Maintain(1, true)
	} else {
		first, cap0, err := newNode(0, 0)
		if err != nil {
			return Result{}, err
		}
		if err := first.Bootstrap(); err != nil {
			return Result{}, err
		}
		rec.Bootstrap(0, cap0)
		alive[0] = first
		for i := 1; i < cfg.Initial; i++ {
			n, capi, err := newNode(i, 0)
			if err != nil {
				return Result{}, err
			}
			if err := n.Join(first.Self().Addr); err != nil {
				return Result{}, fmt.Errorf("churnsim: initial join %d: %w", i, err)
			}
			rec.Join(i, 0, capi)
			alive[i] = n
			maintain(1)
			rec.Maintain(1, false)
		}
		for r := 0; r < 3; r++ {
			for _, n := range liveNodes() {
				n.StabilizeOnce()
			}
			for _, n := range liveNodes() {
				n.FixAll()
			}
		}
		rec.Maintain(3, true)
	}

	// syncFaults brings the network's imperative fault knobs in line with
	// the fault plan at an event-step boundary. Group crashes fire once as
	// their window opens; continuous faults (link loss/delay, partitions)
	// are cleared and re-applied whenever the set of open windows changes.
	// Every applied action is mirrored into the replay log as the plain
	// imperative record it caused, so replay needs no notion of a plan.
	memberAddr := func(i int) string {
		if i < 0 {
			return "" // wildcard link selector
		}
		return fmt.Sprintf("member-%d", i)
	}
	prevFaultKey := ""
	syncFaults := func(step int) {
		if cfg.Faults == nil {
			return
		}
		for _, e := range cfg.Faults.Events {
			if e.Kind != FaultGroupCrash || e.At != step {
				continue
			}
			victims := make([]int, 0, len(e.Members))
			for _, idx := range e.Members {
				if n, ok := alive[idx]; ok {
					n.Stop()
					dropTransport(idx)
					delete(alive, idx)
					res.Crashes++
					victims = append(victims, idx)
				}
			}
			rec.CrashGroup(victims)
		}
		if !cfg.Faults.hasContinuous() {
			return
		}
		key := ""
		for i, e := range cfg.Faults.Events {
			if e.Kind != FaultGroupCrash && e.active(step) {
				key += fmt.Sprintf("%d,", i)
			}
		}
		if key == prevFaultKey {
			return
		}
		prevFaultKey = key
		net.ClearLinkFaults()
		net.HealPartitions()
		rec.HealLinks()
		rec.HealPartitions()
		for _, e := range cfg.Faults.Events {
			if e.Kind == FaultGroupCrash || !e.active(step) {
				continue
			}
			switch e.Kind {
			case FaultLinkLoss:
				net.SetLinkLoss(memberAddr(e.From), memberAddr(e.To), e.Rate)
				rec.LinkLoss(e.From, e.To, e.Rate)
			case FaultLinkDelay:
				net.SetLinkDelay(memberAddr(e.From), memberAddr(e.To), e.Delay)
				rec.LinkDelay(e.From, e.To, e.Delay)
			case FaultPartition:
				for _, m := range e.Members {
					net.SetPartition(memberAddr(m), e.Partition)
					rec.Partition(m, e.Partition)
				}
			}
		}
	}

	// Apply the churn schedule.
	for evIdx, ev := range schedule {
		syncFaults(evIdx)
		switch ev.Kind {
		case workload.EventJoin:
			n, capi, err := newNode(ev.Index, ev.Capacity)
			if err != nil {
				return Result{}, err
			}
			// Join through any live member.
			idxs := liveIdxs()
			viaIdx := idxs[rng.Intn(len(idxs))]
			if err := n.Join(alive[viaIdx].Self().Addr); err != nil {
				// Bootstrap member unreachable mid-churn is a legitimate
				// outcome; retry once through another member.
				viaIdx = idxs[rng.Intn(len(idxs))]
				if err := n.Join(alive[viaIdx].Self().Addr); err != nil {
					return Result{}, fmt.Errorf("churnsim: join of %d failed twice: %w", ev.Index, err)
				}
			}
			rec.Join(ev.Index, viaIdx, capi)
			alive[ev.Index] = n
			res.Joins++
		case workload.EventLeave:
			if n, ok := alive[ev.Index]; ok {
				_ = n.Leave()
				dropTransport(ev.Index)
				delete(alive, ev.Index)
				rec.Leave(ev.Index)
				res.Leaves++
			}
		case workload.EventFail:
			if n, ok := alive[ev.Index]; ok {
				n.Stop()
				dropTransport(ev.Index)
				delete(alive, ev.Index)
				rec.Crash(ev.Index)
				res.Crashes++
			}
		case workload.EventNoop:
			// No membership change: the step exists to run maintenance,
			// probes and fault windows on the event clock.
		}
		res.Events++

		maintain(cfg.MaintenanceBudget)
		rec.Maintain(cfg.MaintenanceBudget, false)
		if (evIdx+1)%cfg.ProbeEvery == 0 {
			if err := probe(); err != nil {
				return Result{}, err
			}
		}
	}
	// One final boundary so fault windows ending with the schedule heal
	// before the trailing probe measures.
	syncFaults(len(schedule))
	// Trailing probe so short runs still measure something.
	if err := probe(); err != nil {
		return Result{}, err
	}
	if err := rec.Flush(); err != nil {
		return Result{}, fmt.Errorf("churnsim: writing replay log: %w", err)
	}

	// Ring correctness before any final repair.
	res.RingCorrect = ringCorrectness(liveNodes())
	res.FinalLiv = len(alive)

	res.MinDelivery = 1
	for _, r := range res.DeliveryRatios {
		res.MeanDelivery += r
		if r < res.MinDelivery {
			res.MinDelivery = r
		}
	}
	if res.Probes > 0 {
		res.MeanDelivery /= float64(res.Probes)
	}
	for _, n := range all {
		st := n.Stats()
		res.Duplicates += st.Duplicates
		res.TableFaults += st.TableFaults
		res.Forwarded += st.Forwarded
		res.Retries += st.Retries
		res.SegmentsRepaired += st.SegmentsRepaired
		res.SegmentsLost += st.SegmentsLost
	}
	return res, nil
}

// ringCorrectness returns the fraction of live nodes whose successor pointer
// matches the true sorted ring of live nodes.
func ringCorrectness(nodes []*runtime.Node) float64 {
	if len(nodes) == 0 {
		return 0
	}
	sorted := make([]*runtime.Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })
	correct := 0
	for i, n := range sorted {
		want := sorted[(i+1)%len(sorted)].Self().Addr
		succs := n.SuccessorList()
		if len(succs) > 0 && succs[0].Addr == want {
			correct++
		}
	}
	return float64(correct) / float64(len(sorted))
}
