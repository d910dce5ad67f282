package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/timing"
)

// Scheduler drives background maintenance — StabilizeOnce, FixOnce, and
// seen-cache sweeps — for any number of members with a fixed pool of shard
// event loops; it is the only maintenance driver a member has. Members
// hash to a shard by ring identifier; each shard keeps its members in
// struct-of-arrays tables (parallel node/generation slices plus reusable
// due-batch scratch) and their deadlines in one hierarchical timer wheel,
// so a maintenance round walks contiguous slices and costs O(due members),
// not O(timers in the runtime heap). Each member keeps its own cadence
// (Config.StabilizeEvery, Config.FixEvery).
//
// Two clock modes share the code path:
//
//   - Wall time (default): Start launches one goroutine per shard, each
//     sleeping toward its wheel's next deadline. It only dispatches: every
//     due stabilize or fix round runs on a goroutine of its own, at most
//     one per (member, kind), and a round that comes due while the
//     previous one still runs is skipped, as a time.Ticker drops ticks.
//     One member's round blocked on a hung peer stalls no other member.
//     Goroutine count is shards plus rounds in flight, no matter how many
//     members are added.
//   - Virtual time (SchedulerConfig.Clock is a *timing.Virtual): nothing
//     runs on its own; the owner calls Advance(d), which moves the clock
//     and executes everything that came due inline, shard by shard. One
//     process can host 100k+ live members this way, and with Shards=1
//     execution order is fully deterministic.
//
// Add members after Bootstrap or Join succeeds; Remove them when they
// leave or crash. A member that stops without being removed is harmless —
// its rounds are skipped — but it stays billed to the shard until removed.
// Node.Stop returns only once the member's round in flight has finished.
type Scheduler struct {
	cfg     SchedulerConfig
	clock   timing.Clock
	virtual *timing.Virtual // non-nil when driven by Advance
	shards  []*schedShard
	arenas  []*NodeArena // one neighbor-table arena per shard (see ArenaFor)

	membersG *obsv.Gauge
	rounds   *obsv.Counter

	mu      sync.Mutex
	members int
	started bool
	stopped bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// SchedulerConfig parameterizes a Scheduler. Maintenance cadences are
// per member (Config.StabilizeEvery, Config.FixEvery), not set here.
type SchedulerConfig struct {
	// Shards is the number of event loops (and member partitions).
	// Default GOMAXPROCS. Use 1 for deterministic execution order.
	Shards int
	// Clock is the maintenance time source: wall time (nil / timing.Wall)
	// runs shard goroutines, a *timing.Virtual hands control of time to
	// the owner via Advance.
	Clock timing.Clock
	// SeenSweepEvery rotates each member's duplicate-suppression
	// generations (default 60s; negative disables).
	SeenSweepEvery time.Duration
	// Metrics optionally publishes scheduler gauges/counters
	// (obsv.MetricSchedMembers, obsv.MetricSchedRounds); nil disables.
	Metrics *obsv.Registry
}

// wheelTick is the timer-wheel granularity.
const wheelTick = time.Millisecond

func (c *SchedulerConfig) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = goruntime.GOMAXPROCS(0)
	}
	if c.Clock == nil {
		c.Clock = timing.Wall()
	}
	if c.SeenSweepEvery == 0 {
		c.SeenSweepEvery = time.Minute
	}
}

// Maintenance kinds encoded in wheel keys.
const (
	schedKindStabilize = iota
	schedKindFix
	schedKindSweep
)

// A wheel key packs (kind, generation, slot). The generation guards slot
// reuse: Remove bumps the slot's generation, so entries armed for the old
// occupant fire into a mismatch and are ignored — lazy cancellation, no
// wheel surgery.
func schedKey(kind int, gen uint32, slot int32) uint64 {
	return uint64(kind)<<62 | uint64(gen&0x3fffffff)<<32 | uint64(uint32(slot))
}

func schedKeyParts(key uint64) (kind int, gen uint32, slot int32) {
	return int(key >> 62), uint32(key>>32) & 0x3fffffff, int32(uint32(key))
}

// schedShard owns one partition of members: SoA member tables, the shard's
// timer wheel, and reusable due-batch scratch.
type schedShard struct {
	mu    sync.Mutex
	wheel *timing.Wheel
	nodes []*Node  // slot -> member (nil = free slot)
	gens  []uint32 // slot -> occupancy generation
	free  []int32  // reusable slots
	index map[*Node]int32

	// kick wakes the shard's wall-mode loop when Add arms a deadline
	// sooner than the one it sleeps toward.
	kick chan struct{}

	// Scratch for one round, reused to keep rounds allocation-free: the
	// due callbacks in firing order, then the keys to rearm. Only the
	// shard's own runDue touches it, never two at once.
	due   []dueEntry
	rearm []rearmEntry
}

type dueEntry struct {
	n    *Node
	kind int
}

type rearmEntry struct {
	key uint64
	at  int64
}

// NewScheduler returns a scheduler with no members. Wall-clock schedulers
// need Start; virtual ones are driven entirely by Advance.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:      cfg,
		clock:    cfg.Clock,
		membersG: cfg.Metrics.Gauge(obsv.MetricSchedMembers),
		rounds:   cfg.Metrics.Counter(obsv.MetricSchedRounds),
		stopCh:   make(chan struct{}),
	}
	if v, ok := cfg.Clock.(*timing.Virtual); ok {
		s.virtual = v
	}
	now := s.clock.Now().UnixNano()
	s.shards = make([]*schedShard, cfg.Shards)
	s.arenas = make([]*NodeArena, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &schedShard{
			wheel: timing.NewWheel(wheelTick, now),
			index: make(map[*Node]int32),
			kick:  make(chan struct{}, 1),
		}
		s.arenas[i] = NewNodeArena()
	}
	return s
}

// ArenaFor returns the shard-local neighbor-table arena for the member
// owning identifier id — the same partition shardFor uses, so a member's
// arena writes always happen on its own shard's event loop. Owners pass it
// as Config.Arena before NewNode so every member of a shard shares one
// interned node table.
func (s *Scheduler) ArenaFor(id ring.ID) *NodeArena {
	return s.arenas[uint64(id)%uint64(len(s.shards))]
}

// ArenaStats aggregates occupancy across every shard arena.
func (s *Scheduler) ArenaStats() ArenaStats {
	var total ArenaStats
	for _, a := range s.arenas {
		st := a.Stats()
		total.Slots += st.Slots
		total.Live += st.Live
		total.Free += st.Free
		total.Reused += st.Reused
	}
	return total
}

// Shards returns the number of shard partitions (and, in wall mode, shard
// goroutines).
func (s *Scheduler) Shards() int { return len(s.shards) }

// Members returns the number of members currently owned.
func (s *Scheduler) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members
}

func (s *Scheduler) shardFor(n *Node) *schedShard {
	return s.shards[uint64(n.self.ID)%uint64(len(s.shards))]
}

// stagger derives a member's deterministic phase within one cadence period
// from its ring identifier, so 100k members' deadlines spread across the
// period instead of thundering on the same tick.
func stagger(id uint64, kind int, every time.Duration) int64 {
	h := id ^ uint64(kind)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return int64(h % uint64(every))
}

// every is n's cadence for one maintenance kind; zero or less arms none.
func (s *Scheduler) every(n *Node, kind int) time.Duration {
	return [...]time.Duration{n.cfg.StabilizeEvery, n.cfg.FixEvery, s.cfg.SeenSweepEvery}[kind]
}

// Add takes over maintenance for n at n's own cadences. Call once per
// member, after Bootstrap or Join succeeded; duplicate Adds are ignored.
func (s *Scheduler) Add(n *Node) {
	sh := s.shardFor(n)
	now := s.clock.Now().UnixNano()
	sh.mu.Lock()
	if _, dup := sh.index[n]; dup {
		sh.mu.Unlock()
		return
	}
	var slot int32
	if k := len(sh.free); k > 0 {
		slot = sh.free[k-1]
		sh.free = sh.free[:k-1]
		sh.nodes[slot] = n
	} else {
		slot = int32(len(sh.nodes))
		sh.nodes = append(sh.nodes, n)
		sh.gens = append(sh.gens, 0)
	}
	sh.index[n] = slot
	for kind := schedKindStabilize; kind <= schedKindSweep; kind++ {
		if every := s.every(n, kind); every > 0 {
			sh.wheel.Schedule(schedKey(kind, sh.gens[slot], slot),
				now+stagger(uint64(n.self.ID), kind, every))
		}
	}
	sh.mu.Unlock()

	s.mu.Lock()
	s.members++
	s.mu.Unlock()
	s.membersG.Add(1)
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// Remove releases n from maintenance (after Leave/Stop, or to hand the
// member back to owner-driven maintenance). Unknown members are ignored.
func (s *Scheduler) Remove(n *Node) {
	sh := s.shardFor(n)
	sh.mu.Lock()
	slot, ok := sh.index[n]
	if ok {
		delete(sh.index, n)
		sh.nodes[slot] = nil
		sh.gens[slot]++ // stale wheel entries now fire into a mismatch
		sh.free = append(sh.free, slot)
	}
	sh.mu.Unlock()
	if ok {
		s.mu.Lock()
		s.members--
		s.mu.Unlock()
		s.membersG.Add(-1)
	}
}

// runDue advances sh's wheel to now, executes every due maintenance
// callback (stabilize batch first, then fix, then sweeps — the same order
// as the lockstep maintain loops in simulations), rearms them one period
// out, and returns the wheel's next deadline (0 = nothing pending).
func (s *Scheduler) runDue(sh *schedShard, now int64) int64 {
	sh.mu.Lock()
	sh.due = sh.due[:0]
	sh.rearm = sh.rearm[:0]
	sh.wheel.Advance(now, func(key uint64) {
		kind, gen, slot := schedKeyParts(key)
		if int(slot) >= len(sh.nodes) || sh.gens[slot] != gen || sh.nodes[slot] == nil {
			return // canceled: the slot moved on to another occupant
		}
		n := sh.nodes[slot]
		sh.due = append(sh.due, dueEntry{n, kind})
		// Rearm after Advance returns: the wheel must not be rescheduled
		// from inside its own fire callback.
		sh.rearm = append(sh.rearm, rearmEntry{key: key, at: now + int64(s.every(n, kind))})
	})
	for _, r := range sh.rearm {
		sh.wheel.Schedule(r.key, r.at)
	}
	next, ok := sh.wheel.Next()
	// Callbacks run without the shard lock: a stabilize RPC can land back
	// on a member of this same shard.
	sh.mu.Unlock()

	for kind := schedKindStabilize; kind <= schedKindSweep; kind++ {
		for _, d := range sh.due {
			if d.kind == kind {
				s.run(d.n, kind)
			}
		}
	}
	if !ok {
		return 0
	}
	return next
}

// run executes one due callback. A virtual clock runs a round inline, in
// shard order; a wall clock hands it to a goroutine of its own, so a round
// blocked on a hung peer holds up no other member. Sweeps never call out
// and run inline in both modes.
func (s *Scheduler) run(n *Node, kind int) {
	if kind == schedKindSweep {
		n.SweepSeen()
		s.rounds.Add(1)
		return
	}
	if !n.enterRound(kind) {
		return
	}
	s.rounds.Add(1)
	if s.virtual != nil {
		n.round(kind)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		n.round(kind)
	}()
}

// enterRound claims n's round of one kind. It fails once n has stopped,
// and while n's previous round of that kind still runs. Claims happen
// under n.mu, before Stop sets stopped, so Stop's wait sees them all.
func (n *Node) enterRound(kind int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || n.busy&(1<<kind) != 0 {
		return false
	}
	n.busy |= 1 << kind
	n.rounds.Add(1)
	return true
}

// round runs a round claimed by enterRound and releases the claim.
func (n *Node) round(kind int) {
	defer n.rounds.Done()
	if kind == schedKindStabilize {
		n.StabilizeOnce()
	} else {
		n.FixOnce()
	}
	n.mu.Lock()
	n.busy &^= 1 << kind
	n.mu.Unlock()
}

// Advance moves virtual time forward by d and runs everything that came
// due, returning when all of it has executed. Multiple shards run their
// batches concurrently; with Shards=1 the whole step is deterministic.
// Only valid on a scheduler built with a *timing.Virtual clock.
func (s *Scheduler) Advance(d time.Duration) {
	if s.virtual == nil {
		panic("runtime: Scheduler.Advance requires a timing.Virtual clock")
	}
	now := s.virtual.Advance(d).UnixNano()
	if len(s.shards) == 1 {
		s.runDue(s.shards[0], now)
		return
	}
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *schedShard) {
			defer wg.Done()
			s.runDue(sh, now)
		}(sh)
	}
	wg.Wait()
}

// Start launches the wall-clock shard loops. No-op for virtual-clock
// schedulers (their owner drives time via Advance) and when already
// started.
func (s *Scheduler) Start() {
	if s.virtual != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
}

// Stop halts the shard loops (if any) and waits for in-flight rounds to
// finish. Members are not stopped or removed; idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
}

// runShard is one wall-clock shard loop: run what is due, sleep toward the
// wheel's next deadline (or until kicked by an Add), repeat.
func (s *Scheduler) runShard(sh *schedShard) {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		next := s.runDue(sh, s.clock.Now().UnixNano())
		var timerC <-chan time.Time
		if next > 0 {
			d := time.Duration(next - s.clock.Now().UnixNano())
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer.Reset(d)
			timerC = timer.C
		}
		select {
		case <-s.stopCh:
			return
		case <-sh.kick:
		case <-timerC:
			timerC = nil
		}
		if timerC != nil && !timer.Stop() {
			<-timer.C
		}
	}
}

// String describes the scheduler for debug output.
func (s *Scheduler) String() string {
	mode := "wall"
	if s.virtual != nil {
		mode = "virtual"
	}
	return fmt.Sprintf("Scheduler(%d shards, %s clock, %d members)", len(s.shards), mode, s.Members())
}
