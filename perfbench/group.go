package main

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"camcast/internal/ids"
	"camcast/internal/metrics"
	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/timing"
	"camcast/internal/transport"
)

// group is one live multicast group, configured the way camcast.Group
// configures its members: one shared metrics registry, an event bus nobody
// subscribes to and shared forwarding counters, with maintenance on a
// runtime.Scheduler (wall clock on TCP, a virtual clock nobody advances on
// the in-memory transport).
type group struct {
	w     Workload
	nodes []*runtime.Node
	tcps  []*transport.TCP
	sched *runtime.Scheduler
	reg   *obsv.Registry
	rec   *recorder // nil when untraced

	// sink is the checker deliveries go to; nil drops them.
	sink atomic.Pointer[checker]

	bulkInstall time.Duration // runtime.BulkInstall
	verifyRound time.Duration // one StabilizeOnce per member
}

// newGroup builds the workload's group from in, installs its ring with
// BulkInstall, verifies the ring with one StabilizeOnce round and, on TCP,
// sends one multicast from every member so every tree edge is dialled.
// rec, when set, records spans at the transport boundary of every member.
func newGroup(w Workload, in Inputs, seed int64, rec *recorder) (g *group, err error) {
	g = &group{w: w, reg: obsv.NewRegistry(), rec: rec}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	space := ring.MustSpace(ringBits)
	hasher := ids.NewHasher(space)
	bus := obsv.NewBus()
	counters := &metrics.Counters{}
	var clock timing.Clock = timing.Wall()
	var mem *transport.Network
	if w.TCP {
		runtime.RegisterWireTypes()
	} else {
		clock = timing.NewVirtual(time.Unix(0, 0))
		mem = transport.NewNetwork(seed)
		mem.Instrument(g.reg)
	}
	g.sched = runtime.NewScheduler(runtime.SchedulerConfig{Clock: clock, Metrics: g.reg})
	if rec != nil {
		rec.index = make(map[string]int32, w.Members)
	}

	spare := in.Spare
	for i := 0; i < w.Members; i++ {
		addr := in.Addrs[i]
		var tr runtime.Transport = mem
		if w.TCP {
			var tcp *transport.TCP
			if tcp, spare, err = listen(addr, spare); err != nil {
				return g, err
			}
			tcp.Instrument(g.reg)
			g.tcps = append(g.tcps, tcp)
			tr, addr = tcp, tcp.Addr()
		}
		if rec != nil {
			rec.index[addr] = int32(i)
			tr = &spanTransport{Transport: tr, rec: rec, node: int32(i)}
		}
		member := i
		node, err := runtime.NewNode(tr, addr, runtime.Config{
			Space:    space,
			Mode:     w.Mode,
			Capacity: in.Capacities[i],
			Clock:    clock,
			Counters: counters,
			Bus:      bus,
			Metrics:  g.reg,
			Arena:    g.sched.ArenaFor(hasher.ID(addr)),
			OnDeliver: func(d runtime.Delivery) {
				if c := g.sink.Load(); c != nil {
					c.deliver(member, d.Payload, c.now())
				}
			},
		})
		if err != nil {
			return g, fmt.Errorf("member %d: %w", i, err)
		}
		g.nodes = append(g.nodes, node)
	}

	start := time.Now()
	if err := runtime.BulkInstall(g.nodes, runtime.BulkOptions{}); err != nil {
		return g, err
	}
	g.bulkInstall = time.Since(start)
	for _, n := range g.nodes {
		g.sched.Add(n)
	}
	g.sched.Start()

	start = time.Now()
	stabilizeAll(g.nodes)
	g.verifyRound = time.Since(start)
	if err := checkRing(g.nodes); err != nil {
		return g, err
	}
	if w.TCP {
		if err := g.warmup(in, w.Members); err != nil {
			return g, err
		}
	}
	return g, nil
}

// listen opens a loopback transport on addr, falling back to the spare
// addresses in order while the port is taken on this host.
func listen(addr string, spare []string) (*transport.TCP, []string, error) {
	for {
		tcp, err := transport.NewTCP(addr)
		if err == nil {
			return tcp, spare, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) || len(spare) == 0 {
			return nil, spare, err
		}
		addr, spare = spare[0], spare[1:]
	}
}

// stabilizeAll runs one StabilizeOnce on every node, the nodes split into
// one contiguous chunk per processor.
func stabilizeAll(nodes []*runtime.Node) {
	workers := goruntime.GOMAXPROCS(0)
	chunk := (len(nodes) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(nodes); lo += chunk {
		part := nodes[lo:min(lo+chunk, len(nodes))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range part {
				n.StabilizeOnce()
			}
		}()
	}
	wg.Wait()
}

// checkRing verifies that every node's successor and predecessor are its
// neighbors in identifier order.
func checkRing(nodes []*runtime.Node) error {
	sorted := append([]*runtime.Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })
	for i, n := range sorted {
		succ := sorted[(i+1)%len(sorted)].Self()
		pred := sorted[(i+len(sorted)-1)%len(sorted)].Self()
		list := n.SuccessorList()
		if len(list) == 0 || list[0] != succ {
			return fmt.Errorf("ring check: %s has successor %v, want %v", n.Self().Addr, list, succ)
		}
		if p, ok := n.Predecessor(); !ok || p != pred {
			return fmt.Errorf("ring check: %s has predecessor %v, want %v", n.Self().Addr, p, pred)
		}
	}
	return nil
}

// warmup sends count checked multicasts, cycling through the members as
// sources on TCP and through the seeded source sequence on mem.
func (g *group) warmup(in Inputs, count int) error {
	ck := newChecker(len(g.nodes), count)
	g.sink.Store(ck)
	defer g.sink.Store(nil)
	payload := newPayload(in)
	for i := 0; i < count; i++ {
		src := in.Sources[i%len(in.Sources)]
		if g.w.TCP {
			src = i % len(g.nodes)
		}
		stamp(payload, i)
		if _, err := g.nodes[src].MulticastContext(context.Background(), payload); err != nil {
			return fmt.Errorf("warm-up multicast %d: %w", i, err)
		}
		ck.awaitComplete(i, completeWait)
	}
	if v := ck.verify(count); !v.OK(len(g.nodes)) {
		return fmt.Errorf("warm-up delivery: %v", v)
	}
	return nil
}

func newPayload(in Inputs) []byte {
	p := make([]byte, indexBytes+len(in.Fill))
	copy(p[indexBytes:], in.Fill)
	return p
}

// completeWait is how long a message may take to reach its last member
// after its Multicast returned. Multicast returns once the tree completes,
// so only a lost delivery waits this long.
const completeWait = time.Second

// phase is the outcome of one closed-loop stretch of traffic.
type phase struct {
	sent     int
	verdict  verdict
	latency  []float64 // ms, MulticastContext call to last OnDeliver, per message
	windows  []window
	proc     procDelta
	regDelta obsv.Snapshot // counters and histograms over the phase
	stats    runtime.Stats // duplicates and retries summed over members, over the phase
}

// windowLen is the length of the stretches a phase's throughput and CPU
// cost are taken over; their medians shrug off a burst of interference
// from elsewhere on the host that a whole-phase mean would absorb.
const windowLen = time.Second

// window is one stretch of a phase, ending at the first completed
// multicast after windowLen.
type window struct {
	wall, cpu  time.Duration
	deliveries int64
}

// deliveries is the number of distinct (message, member) deliveries.
func (p phase) deliveries() int64 { return p.verdict.Distinct }

// deliveriesPerSec is the median over windows of deliveries per second,
// or the whole phase's rate when it was shorter than one window.
func (p phase) deliveriesPerSec() float64 {
	if len(p.windows) == 0 {
		return float64(p.deliveries()) / p.proc.wall.Seconds()
	}
	rates := make([]float64, len(p.windows))
	for i, w := range p.windows {
		rates[i] = float64(w.deliveries) / w.wall.Seconds()
	}
	return median(rates)
}

// cpuPerDelivery is the median over windows of process CPU per delivery,
// or the whole phase's when it was shorter than one window.
func (p phase) cpuPerDelivery() time.Duration {
	if len(p.windows) == 0 {
		return time.Duration(perUnit(float64(p.proc.cpu), p.deliveries()))
	}
	costs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		costs[i] = perUnit(float64(w.cpu), w.deliveries)
	}
	return time.Duration(median(costs))
}

// run sends multicasts one at a time, each from the next seeded source,
// until at least minDur has passed and minMsgs messages have reached every
// member, or until the checker is full, limit has passed or stop says so.
func (g *group) run(in Inputs, minDur time.Duration, minMsgs int, limit time.Duration, stop func() bool) (phase, error) {
	ck := newChecker(len(g.nodes), g.w.MaxMessages)
	g.sink.Store(ck)
	defer g.sink.Store(nil)
	payload := newPayload(in)
	ctx := context.Background()
	var p phase
	p.latency = make([]float64, 0, g.w.MaxMessages)

	regBefore := g.reg.Snapshot()
	statsBefore := g.stats()
	before, err := readProc()
	if err != nil {
		return p, err
	}
	winStart, winCPU := before.wall, before.cpu
	var winDeliveries int64
	closeWindow := func(now time.Time) error {
		cpu, err := cpuTime()
		if err != nil {
			return err
		}
		p.windows = append(p.windows, window{wall: now.Sub(winStart), cpu: cpu - winCPU, deliveries: winDeliveries})
		winStart, winCPU, winDeliveries = now, cpu, 0
		return nil
	}
	i := 0
	for ; i < g.w.MaxMessages; i++ {
		now := time.Now()
		if now.Sub(winStart) >= windowLen {
			if err := closeWindow(now); err != nil {
				return p, err
			}
		}
		if el := now.Sub(before.wall); (el >= minDur && len(p.latency) >= minMsgs) || el >= limit || (stop != nil && stop()) {
			break
		}
		src := g.nodes[in.Sources[i%len(in.Sources)]]
		stamp(payload, i)
		traced := g.rec != nil && g.rec.on.Load()
		var spanStart int64
		if traced {
			spanStart = g.rec.now()
		}
		t0 := ck.now()
		_, err := src.MulticastContext(ctx, payload)
		if traced {
			g.rec.add(span{start: spanStart, end: g.rec.now(), node: g.rec.member(src.Self().Addr), peer: -1, layer: layerMcast})
		}
		if err != nil {
			ck.fail(i)
			continue
		}
		if ck.awaitComplete(i, completeWait) {
			p.latency = append(p.latency, float64(ck.lastDelivery(i)-t0)/1e6)
		}
		winDeliveries += int64(ck.delivered(i))
	}
	if now := time.Now(); now.Sub(winStart) >= windowLen/2 {
		if err := closeWindow(now); err != nil {
			return p, err
		}
	}
	after, err := readProc()
	if err != nil {
		return p, err
	}
	p.sent = i
	p.proc = before.to(after)
	p.regDelta = snapshotDelta(regBefore, g.reg.Snapshot())
	p.stats = statsDelta(statsBefore, g.stats())
	p.verdict = ck.verify(i)
	return p, nil
}

// stats sums the members' protocol counters the per-layer metrics use.
func (g *group) stats() runtime.Stats {
	var s runtime.Stats
	for _, n := range g.nodes {
		ns := n.Stats()
		s.Duplicates += ns.Duplicates
		s.Retries += ns.Retries
	}
	return s
}

func statsDelta(a, b runtime.Stats) runtime.Stats {
	return runtime.Stats{Duplicates: b.Duplicates - a.Duplicates, Retries: b.Retries - a.Retries}
}

// snapshotDelta returns b's counters and histogram counts and sums minus
// a's.
func snapshotDelta(a, b obsv.Snapshot) obsv.Snapshot {
	d := obsv.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obsv.HistogramSnapshot{}}
	for name, v := range b.Counters {
		d.Counters[name] = v - a.Counters[name]
	}
	for name, h := range b.Histograms {
		prev := a.Histograms[name]
		d.Histograms[name] = obsv.HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	}
	return d
}

// connsOpen sums the live connections of every member's transport.
func (g *group) connsOpen() int {
	total := 0
	for _, t := range g.tcps {
		total += t.ConnCount()
	}
	return total
}

// close stops maintenance, every member and every transport, waiting for
// each to finish.
func (g *group) close() {
	if g.sched != nil {
		g.sched.Stop()
	}
	for _, n := range g.nodes {
		n.Stop()
	}
	for _, t := range g.tcps {
		t.Close()
	}
}
