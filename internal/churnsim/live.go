package churnsim

import (
	"fmt"
	"io"
	"math/rand"
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"camcast/internal/ids"
	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/timing"
	"camcast/internal/transport"
)

// LiveConfig parameterizes one live-scale run: a whole membership hosted in
// this process with maintenance driven by the sharded scheduler
// (runtime.Scheduler) instead of the lockstep maintain() rounds of Run.
// This is the path that hosts 100k+ members: no per-member goroutines, one
// timer wheel per shard, and — on the mem transport — a virtual clock the
// driver advances, so a year of maintenance cadence costs only the work
// actually due.
type LiveConfig struct {
	Mode      runtime.Mode
	Members   int    // target live membership after the ramp
	Transport string // "mem" (default, virtual time) or "tcp" (wall time)

	// Groups partitions the membership across this many tenant flows
	// (member idx mod Groups): each group is an independent overlay
	// multiplexed over the same underlying transport, exactly how the
	// public Group API shards tenants. 1 (the default) keeps the
	// single-overlay behavior. Probes and ring correctness are measured
	// within the probed member's own group; RingCorrect reports the
	// worst group.
	Groups int

	// Ramp selects how the initial membership is built: "bulk" (default)
	// creates every member up front and installs the sorted-membership ring
	// directly (runtime.BulkInstall) followed by one verification
	// stabilization round; "join" ramps incrementally through the normal
	// join path with stabilize-paced batching, exercising the same code
	// churn does. Churn always uses the incremental path regardless.
	Ramp string

	// Shards is the scheduler's shard count (default GOMAXPROCS).
	Shards int
	// Bits is the identifier space width. Default 32: at 100k members a
	// 20-bit space collides constantly, a 32-bit one almost never, and
	// the rare collision is retried under a fresh address.
	Bits       uint
	CapacityLo int // member capacities drawn uniformly from [lo, hi]; default [4,8]
	CapacityHi int
	Seed       int64

	// ChurnEvents is the number of membership events after the ramp
	// (default members/100, clamped to [50, 400] — per-event cost grows
	// with membership, so the cap keeps a 100k run in minutes). Probes is
	// the number of measurement multicasts spread across churn (default 20).
	ChurnEvents int
	Probes      int

	// Metrics and Bus instrument every member, as in Config.
	Metrics *obsv.Registry
	Bus     *obsv.Bus

	// Log, when set, receives progress lines (ramp milestones, phase
	// transitions); useful because a 100k ramp takes minutes.
	Log io.Writer
}

func (c *LiveConfig) applyDefaults() {
	if c.Transport == "" {
		c.Transport = "mem"
	}
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.Ramp == "" {
		c.Ramp = "bulk"
	}
	if c.Bits == 0 {
		c.Bits = 32
	}
	if c.CapacityLo == 0 && c.CapacityHi == 0 {
		c.CapacityLo, c.CapacityHi = 4, 8
	}
	if c.ChurnEvents == 0 {
		c.ChurnEvents = c.Members / 100
		if c.ChurnEvents < 50 {
			c.ChurnEvents = 50
		}
		if c.ChurnEvents > 400 {
			c.ChurnEvents = 400
		}
	}
	if c.Probes == 0 {
		c.Probes = 20
	}
}

func (c *LiveConfig) validate() error {
	if c.Members < 2 {
		return fmt.Errorf("churnsim: live run needs at least 2 members, got %d", c.Members)
	}
	if c.Groups < 1 || c.Members < 2*c.Groups {
		return fmt.Errorf("churnsim: %d groups need at least %d members, got %d", c.Groups, 2*c.Groups, c.Members)
	}
	minCap := 2
	if c.Mode == runtime.ModeCAMKoorde {
		minCap = 4
	}
	if c.CapacityLo < minCap || c.CapacityHi < c.CapacityLo {
		return fmt.Errorf("churnsim: capacity range [%d,%d] invalid for %v", c.CapacityLo, c.CapacityHi, c.Mode)
	}
	switch c.Transport {
	case "mem", "tcp":
	default:
		return fmt.Errorf("churnsim: unknown transport %q (want mem or tcp)", c.Transport)
	}
	switch c.Ramp {
	case "bulk", "join":
	default:
		return fmt.Errorf("churnsim: unknown ramp %q (want bulk or join)", c.Ramp)
	}
	return nil
}

// LiveResult summarizes one live-scale run. Latency fields are exact
// percentiles in milliseconds over every operation of that kind in the run
// (joins across ramp and churn; leaves and multicasts during churn),
// measured in wall time — the virtual clock schedules maintenance, it does
// not distort measurement.
type LiveResult struct {
	Transport string `json:"transport"`
	Mode      string `json:"mode"`
	Members   int    `json:"members"`
	Groups    int    `json:"groups,omitempty"`
	Shards    int    `json:"shards"`

	Joins   int `json:"joins"`
	Leaves  int `json:"leaves"`
	Crashes int `json:"crashes"`
	Probes  int `json:"probes"`

	JoinP50Ms  float64 `json:"join_p50_ms"`
	JoinP95Ms  float64 `json:"join_p95_ms"`
	JoinP99Ms  float64 `json:"join_p99_ms"`
	LeaveP50Ms float64 `json:"leave_p50_ms"`
	LeaveP95Ms float64 `json:"leave_p95_ms"`
	LeaveP99Ms float64 `json:"leave_p99_ms"`
	McastP50Ms float64 `json:"multicast_p50_ms"`
	McastP95Ms float64 `json:"multicast_p95_ms"`
	McastP99Ms float64 `json:"multicast_p99_ms"`

	// Lookup hop-count percentiles across every lookup the run performed
	// (joins, table fixes, probes), read from the runtime's lookup-hops
	// histogram. Zero when the run has no Metrics registry. Failed lookups
	// are recorded at the hop budget, so a partitioned run shows up as a
	// blown p99 rather than a silently clean one.
	LookupHopsP50 float64 `json:"lookup_hops_p50,omitempty"`
	LookupHopsP95 float64 `json:"lookup_hops_p95,omitempty"`
	LookupHopsP99 float64 `json:"lookup_hops_p99,omitempty"`

	MeanDelivery float64 `json:"mean_delivery"`
	MinDelivery  float64 `json:"min_delivery"`
	RingCorrect  float64 `json:"ring_correct"`

	// Goroutines is the process goroutine count while hosting the full
	// membership — O(shards), not O(members), is the invariant.
	Goroutines int `json:"goroutines"`
	// BytesPerMember is the steady-state heap cost per member
	// (HeapAlloc delta across the ramp / members).
	BytesPerMember float64 `json:"bytes_per_member"`

	RampSeconds  float64 `json:"ramp_seconds"`
	ChurnSeconds float64 `json:"churn_seconds"`

	// Bulk-ramp split (zero under Ramp "join"): BulkRampSeconds covers
	// member creation plus table installation, VerifySeconds the
	// verification stabilization round that follows.
	BulkRampSeconds float64 `json:"bulk_ramp_seconds,omitempty"`
	VerifySeconds   float64 `json:"verify_seconds,omitempty"`

	// Shard-arena occupancy after churn: interned node-table slots across
	// all shards, how many are live, and the live/slots ratio (recycling
	// health — churn should reuse freed slots, not grow the arena forever).
	ArenaSlots     int     `json:"arena_slots,omitempty"`
	ArenaLive      int     `json:"arena_live,omitempty"`
	ArenaOccupancy float64 `json:"arena_occupancy,omitempty"`
}

// pickVictim selects a random live member to depart, never shrinking any
// group below two members — a tenant ring that churns out entirely has no
// member left to bootstrap its replacements through.
func pickVictim(rng *rand.Rand, alive map[int]*runtime.Node, groupOf func(int) int, groups int) (int, bool) {
	counts := make([]int, groups)
	for i := range alive {
		counts[groupOf(i)]++
	}
	var idxs []int
	for i := range alive {
		if counts[groupOf(i)] > 2 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return 0, false
	}
	sort.Ints(idxs)
	return idxs[rng.Intn(len(idxs))], true
}

// latRecorder accumulates raw samples for exact percentiles. The live
// driver is single-threaded, so no lock.
type latRecorder struct{ samples []float64 }

func (l *latRecorder) observe(d time.Duration) {
	l.samples = append(l.samples, float64(d.Nanoseconds())/1e6)
}

// percentile returns the exact q-percentile (nearest-rank) in ms.
func (l *latRecorder) percentile(q float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), l.samples...)
	sort.Float64s(s)
	rank := int(q*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// RunLive executes one live-scale run: ramp to cfg.Members, converge, churn
// with probe multicasts, report.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return LiveResult{}, err
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	useTCP := cfg.Transport == "tcp"
	var clock timing.Clock
	var virt *timing.Virtual
	if useTCP {
		clock = timing.Wall()
	} else {
		virt = timing.NewVirtual(time.Unix(0, 0))
		clock = virt
	}
	space, err := ring.NewSpace(cfg.Bits)
	if err != nil {
		return LiveResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var net *transport.Network
	if !useTCP {
		net = transport.NewNetwork(cfg.Seed + 2)
		if cfg.Metrics != nil {
			net.Instrument(cfg.Metrics)
		}
	} else {
		runtime.RegisterWireTypes()
	}

	sched := runtime.NewScheduler(runtime.SchedulerConfig{
		Shards:  cfg.Shards,
		Clock:   clock,
		Metrics: cfg.Metrics,
	})
	sched.Start() // no-op under the virtual clock

	col := &collector{got: make(map[string]int)}
	var (
		res     LiveResult
		alive   = make(map[int]*runtime.Node)
		usedIDs = make(map[ring.ID]bool)
		tcps    = make(map[int]*transport.TCP)
		joins   latRecorder
		leaves  latRecorder
		mcasts  latRecorder
	)
	res.Transport = cfg.Transport
	res.Mode = cfg.Mode.String()
	res.Members = cfg.Members
	if cfg.Groups > 1 {
		res.Groups = cfg.Groups
	}
	res.Shards = sched.Shards()

	// One flow label per tenant group; in a multi-group run even group 0
	// gets its own label so no tenant rides the default flow.
	gids := make([]uint64, cfg.Groups)
	if cfg.Groups > 1 {
		for g := range gids {
			gids[g] = transport.GroupLabel(fmt.Sprintf("tenant-%d", g))
		}
	}
	groupOf := func(idx int) int { return idx % cfg.Groups }
	defer func() {
		sched.Stop()
		for _, n := range alive {
			n.Stop()
		}
		for _, tr := range tcps {
			tr.Close()
		}
	}()

	// newMember builds member idx, retrying under a suffixed address on the
	// (rare at 32 bits) identifier collision. Nodes register with the
	// transport only at Bootstrap/Join, so a discarded candidate leaves no
	// residue. Each member's neighbor tables live on its scheduler shard's
	// arena — computed from the identifier its address hashes to, so the
	// arena choice matches the shard the scheduler will run it on.
	hasher := ids.NewHasher(space)
	newMember := func(idx int) (*runtime.Node, error) {
		capacity := cfg.CapacityLo + rng.Intn(cfg.CapacityHi-cfg.CapacityLo+1)
		rcfg := runtime.Config{
			Space:     space,
			Mode:      cfg.Mode,
			Capacity:  capacity,
			Clock:     clock,
			OnDeliver: func(d runtime.Delivery) { col.add(d.MsgID) },
			Bus:       cfg.Bus,
			Metrics:   cfg.Metrics,
		}
		for attempt := 0; ; attempt++ {
			if attempt > 8 {
				return nil, fmt.Errorf("churnsim: member %d: 8 identifier collisions in a row", idx)
			}
			addr := fmt.Sprintf("m-%d", idx)
			if attempt > 0 {
				addr = fmt.Sprintf("m-%d.%d", idx, attempt)
			}
			var tr runtime.Transport = net
			if cfg.Groups > 1 && !useTCP {
				tr = net.Flow(gids[groupOf(idx)])
			}
			var tcp *transport.TCP
			if useTCP {
				var err error
				tcp, err = transport.NewTCP("127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				tcp.DialTimeout = 500 * time.Millisecond
				tcp.RPCTimeout = time.Second
				if cfg.Metrics != nil {
					tcp.Instrument(cfg.Metrics)
				}
				tr = tcp
				if cfg.Groups > 1 {
					tr = tcp.Flow(gids[groupOf(idx)])
				}
				addr = tcp.Addr()
			}
			rcfg.Arena = sched.ArenaFor(hasher.ID(addr))
			node, err := runtime.NewNode(tr, addr, rcfg)
			if err != nil {
				if tcp != nil {
					tcp.Close()
				}
				return nil, err
			}
			if usedIDs[node.Self().ID] {
				node.Stop()
				if tcp != nil {
					tcp.Close()
				}
				continue
			}
			usedIDs[node.Self().ID] = true
			if tcp != nil {
				tcps[idx] = tcp
			}
			return node, nil
		}
	}
	dropMember := func(idx int) {
		if n, ok := alive[idx]; ok {
			usedIDs[n.Self().ID] = false
			delete(alive, idx)
		}
		if tr, ok := tcps[idx]; ok {
			tr.Close()
			delete(tcps, idx)
		}
	}
	// settle lets maintenance run for roughly wall duration d: under the
	// virtual clock time moves only here; under wall time the shard loops
	// are already running and we just wait.
	settle := func(d time.Duration) {
		if virt != nil {
			sched.Advance(d)
		} else {
			time.Sleep(d)
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
	liveIdxsOf := func(g int) []int {
		var idxs []int
		for i := range alive {
			if groupOf(i) == g {
				idxs = append(idxs, i)
			}
		}
		sort.Ints(idxs)
		return idxs
	}
	liveNodesOf := func(g int) []*runtime.Node {
		idxs := liveIdxsOf(g)
		out := make([]*runtime.Node, 0, len(idxs))
		for _, i := range idxs {
			out = append(out, alive[i])
		}
		return out
	}
	// ringCorrect is the worst group's correctness: every tenant overlay
	// must hold its own ring, not just the aggregate.
	ringCorrect := func() float64 {
		worst := 1.0
		for g := 0; g < cfg.Groups; g++ {
			if rc := ringCorrectness(liveNodesOf(g)); rc < worst {
				worst = rc
			}
		}
		return worst
	}
	probe := func() error {
		idxs := liveIdxs()
		if len(idxs) == 0 {
			return fmt.Errorf("churnsim: no live members to probe")
		}
		srcIdx := idxs[rng.Intn(len(idxs))]
		src := alive[srcIdx]
		groupSize := len(liveIdxsOf(groupOf(srcIdx)))
		start := time.Now()
		msgID, err := src.Multicast([]byte("probe"))
		if err != nil {
			return err
		}
		mcasts.observe(time.Since(start))
		// Delivery is measured against the sender's own group: a probe
		// multicast must reach that tenant's membership and no one else's.
		ratio := float64(col.count(msgID)) / float64(groupSize)
		if ratio > 1 {
			ratio = 1
		}
		res.MeanDelivery += ratio
		if res.Probes == 0 || ratio < res.MinDelivery {
			res.MinDelivery = ratio
		}
		res.Probes++
		return nil
	}

	var base goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&base)

	// Ramp progress is logged by elapsed-time cadence, not member-count
	// stride: at 1M members a fixed every-N milestone goes silent for
	// minutes, while a 5s heartbeat stays informative at every scale.
	rampStart := time.Now()
	lastLog := time.Now()
	maybeLog := func(format string, args ...any) {
		if cfg.Log != nil && time.Since(lastLog) >= 5*time.Second {
			lastLog = time.Now()
			logf(format, args...)
		}
	}

	verified := false
	if cfg.Ramp == "bulk" {
		// Phase 1 (bulk) — create the whole membership up front and install
		// the ring directly from the sorted identifier array; convergence is
		// reserved for churn, where membership is genuinely unknown.
		nodes := make([]*runtime.Node, 0, cfg.Members)
		byGroup := make([][]*runtime.Node, cfg.Groups)
		for i := 0; i < cfg.Members; i++ {
			n, err := newMember(i)
			if err != nil {
				return LiveResult{}, err
			}
			alive[i] = n
			nodes = append(nodes, n)
			byGroup[groupOf(i)] = append(byGroup[groupOf(i)], n)
			maybeLog("ramp: created %d/%d members (%.0fs)", i+1, cfg.Members, time.Since(rampStart).Seconds())
		}
		// Each group is its own ring: install them independently.
		for _, part := range byGroup {
			if err := runtime.BulkInstall(part, runtime.BulkOptions{}); err != nil {
				return LiveResult{}, err
			}
		}
		for _, n := range nodes {
			sched.Add(n)
		}
		res.Joins += cfg.Members
		res.BulkRampSeconds = time.Since(rampStart).Seconds()
		logf("ramp: bulk-installed %d members in %.1fs", cfg.Members, res.BulkRampSeconds)

		// Verification round: one StabilizeOnce per member, in parallel
		// chunks. On a correctly installed ring this confirms every
		// successor/predecessor pointer without changing anything; were a
		// pointer wrong, the round would repair it and the correctness
		// check below would send us into the converge loop.
		verifyStart := time.Now()
		workers := goruntime.GOMAXPROCS(0)
		chunk := (len(nodes) + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < len(nodes); lo += chunk {
			hi := lo + chunk
			if hi > len(nodes) {
				hi = len(nodes)
			}
			wg.Add(1)
			go func(part []*runtime.Node) {
				defer wg.Done()
				for _, n := range part {
					n.StabilizeOnce()
				}
			}(nodes[lo:hi])
		}
		wg.Wait()
		rc := ringCorrect()
		res.VerifySeconds = time.Since(verifyStart).Seconds()
		logf("ramp: verification round in %.1fs, ring %.3f", res.VerifySeconds, rc)
		verified = rc >= 1
		if useTCP {
			// An incremental ramp warms every peer-pair connection as a side
			// effect of taking seconds per batch; a bulk ramp reaches churn
			// with cold dial caches. Give the wall-clock shard loops a few
			// maintenance rounds so connection setup is not racing repair.
			for r := 0; r < 4; r++ {
				settle(500 * time.Millisecond)
			}
		}
	} else {
		// Phase 1 (join) — ramp members one at a time through a random live
		// member, granting a full stabilization period whenever joins since
		// the last one reach ~1/16 of the ring. Stabilize heals a stale
		// successor pointer one member per round, so the deficit a gap can
		// accumulate between settles must stay O(1); scaling the batch to
		// ring size keeps total ramp maintenance at O(n log n)
		// stabilizations instead of the O(n^2) of maintain-after-every-join.
		// Member idx 0..Groups-1 bootstrap their respective rings; everyone
		// else joins through a member of their own group.
		vias := make([][]*runtime.Node, cfg.Groups)
		for g := 0; g < cfg.Groups; g++ {
			first, err := newMember(g)
			if err != nil {
				return LiveResult{}, err
			}
			if err := first.Bootstrap(); err != nil {
				return LiveResult{}, err
			}
			alive[g] = first
			sched.Add(first)
			vias[g] = []*runtime.Node{first}
		}
		joinsSince := 0
		for i := cfg.Groups; i < cfg.Members; i++ {
			n, err := newMember(i)
			if err != nil {
				return LiveResult{}, err
			}
			g := groupOf(i)
			via := vias[g][rng.Intn(len(vias[g]))]
			start := time.Now()
			if err := n.Join(via.Self().Addr); err != nil {
				return LiveResult{}, fmt.Errorf("churnsim: ramp join %d via %s: %w", i, via.Self().Addr, err)
			}
			joins.observe(time.Since(start))
			res.Joins++
			alive[i] = n
			sched.Add(n)
			if len(vias[g]) < 64 {
				vias[g] = append(vias[g], n)
			}
			joinsSince++
			if joinsSince*16 >= len(alive) {
				settle(time.Second) // one stabilize + one table-fix per member
				joinsSince = 0
			}
			maybeLog("ramp: %d/%d members (%.0fs)", i, cfg.Members, time.Since(rampStart).Seconds())
		}
	}

	// Phase 2 — converge: maintenance periods until every live successor
	// pointer is right, correctness stops improving, or the round budget
	// runs out (the final number is reported either way). A bulk ramp whose
	// verification round already proved the ring skips this entirely.
	if !verified {
		best := 0.0
		for r := 0; r < 120; r++ {
			settle(500 * time.Millisecond)
			if r%3 == 2 {
				rc := ringCorrect()
				if rc >= 1 || (r > 30 && rc <= best) {
					break
				}
				if rc > best {
					best = rc
				}
			}
		}
	}
	res.RampSeconds = time.Since(rampStart).Seconds()

	goruntime.GC()
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	if after.HeapAlloc > base.HeapAlloc {
		res.BytesPerMember = float64(after.HeapAlloc-base.HeapAlloc) / float64(cfg.Members)
	}
	res.Goroutines = goruntime.NumGoroutine()
	logf("ramp done: %d members in %.0fs, %d goroutines, %.0f B/member",
		cfg.Members, res.RampSeconds, res.Goroutines, res.BytesPerMember)

	// Phase 3 — churn with probes. Joins/leaves/crashes at 45/35/20,
	// bounded so the membership never falls below half the target.
	churnStart := time.Now()
	probeEvery := cfg.ChurnEvents / cfg.Probes
	if probeEvery < 1 {
		probeEvery = 1
	}
	nextIdx := cfg.Members
	for ev := 0; ev < cfg.ChurnEvents; ev++ {
		r := rng.Float64()
		switch {
		case r < 0.45 || len(alive) < cfg.Members/2:
			n, err := newMember(nextIdx)
			if err != nil {
				return LiveResult{}, err
			}
			// Joins must go through a member of the joiner's own group:
			// flows are isolated, so a cross-group bootstrap address is
			// simply unreachable.
			idxs := liveIdxsOf(groupOf(nextIdx))
			via := alive[idxs[rng.Intn(len(idxs))]]
			start := time.Now()
			if err := n.Join(via.Self().Addr); err != nil {
				// The bootstrap member may itself have just churned out;
				// one retry through another member, then give up on this
				// event (a failed join is churn, not an error).
				via = alive[idxs[rng.Intn(len(idxs))]]
				if err := n.Join(via.Self().Addr); err != nil {
					n.Stop()
					usedIDs[n.Self().ID] = false
					dropMember(nextIdx)
					nextIdx++
					break
				}
			}
			joins.observe(time.Since(start))
			alive[nextIdx] = n
			sched.Add(n)
			nextIdx++
			res.Joins++
		case r < 0.80:
			victim, ok := pickVictim(rng, alive, groupOf, cfg.Groups)
			if !ok {
				break
			}
			n := alive[victim]
			sched.Remove(n)
			start := time.Now()
			_ = n.Leave()
			leaves.observe(time.Since(start))
			dropMember(victim)
			res.Leaves++
		default:
			victim, ok := pickVictim(rng, alive, groupOf, cfg.Groups)
			if !ok {
				break
			}
			n := alive[victim]
			sched.Remove(n)
			n.Stop()
			dropMember(victim)
			res.Crashes++
		}
		settle(50 * time.Millisecond)
		if (ev+1)%probeEvery == 0 && res.Probes < cfg.Probes {
			if err := probe(); err != nil {
				return LiveResult{}, err
			}
		}
		maybeLog("churn: %d/%d events (%.0fs)", ev+1, cfg.ChurnEvents, time.Since(churnStart).Seconds())
	}
	// Let the overlay repair, then take the closing measurements.
	for r := 0; r < 20; r++ {
		settle(500 * time.Millisecond)
	}
	if err := probe(); err != nil {
		return LiveResult{}, err
	}
	res.ChurnSeconds = time.Since(churnStart).Seconds()
	res.RingCorrect = ringCorrect()
	ast := sched.ArenaStats()
	res.ArenaSlots = ast.Slots
	res.ArenaLive = ast.Live
	if ast.Slots > 0 {
		res.ArenaOccupancy = float64(ast.Live) / float64(ast.Slots)
	}
	if res.Probes > 0 {
		res.MeanDelivery /= float64(res.Probes)
	}

	res.JoinP50Ms = joins.percentile(0.50)
	res.JoinP95Ms = joins.percentile(0.95)
	res.JoinP99Ms = joins.percentile(0.99)
	res.LeaveP50Ms = leaves.percentile(0.50)
	res.LeaveP95Ms = leaves.percentile(0.95)
	res.LeaveP99Ms = leaves.percentile(0.99)
	res.McastP50Ms = mcasts.percentile(0.50)
	res.McastP95Ms = mcasts.percentile(0.95)
	res.McastP99Ms = mcasts.percentile(0.99)
	if cfg.Metrics != nil {
		if h, ok := cfg.Metrics.Snapshot().Histograms[obsv.MetricLookupHops]; ok && h.Count > 0 {
			res.LookupHopsP50 = h.BoundedQuantile(0.50)
			res.LookupHopsP95 = h.BoundedQuantile(0.95)
			res.LookupHopsP99 = h.BoundedQuantile(0.99)
		}
	}
	logf("churn done: %d events in %.0fs, ring %.3f, delivery mean %.3f min %.3f",
		cfg.ChurnEvents, res.ChurnSeconds, res.RingCorrect, res.MeanDelivery, res.MinDelivery)
	return res, nil
}
