package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"camcast/internal/obsv"
)

// TestUnobservedHotPathsAllocFree pins the guarantee behind the hot paths'
// bus.Active() guard: with no bus subscriber, the
// accounting turns of the delivery path — deliver, duplicate suppression —
// allocate nothing. Without the guard, emitf's variadic arguments box into
// a []any at every call site before emitf's own early return runs, which
// is exactly the regression the dissemination 0 allocs/op gates would
// catch much more expensively.
func TestUnobservedHotPathsAllocFree(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	n := c.add("alloc-node", 4, "")

	if n.obs.bus.Active() {
		t.Fatal("node with no bus subscriber reports observed")
	}

	d := Delivery{MsgID: "alloc-node#1", Payload: []byte("x"), Hops: 2}
	if allocs := testing.AllocsPerRun(1000, func() { n.deliver(d) }); allocs != 0 {
		t.Errorf("deliver with no observer: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { n.noteDuplicate("alloc-node#1") }); allocs != 0 {
		t.Errorf("noteDuplicate with no observer: %v allocs/op, want 0", allocs)
	}
}

// TestObservedHotPathsStillEmit proves the guard only skips work, never
// events: the same turns emit their events once a bus subscriber watches.
func TestObservedHotPathsStillEmit(t *testing.T) {
	bus := obsv.NewBus()
	sub := bus.Subscribe(1024)
	defer sub.Close()
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) { cfg.Bus = bus }
	n := c.add("traced-node", 4, "")
	if !n.obs.bus.Active() {
		t.Fatal("node with a bus subscriber reports unobserved")
	}
	sub.Drain(nil) // the join's events
	n.noteDuplicate("traced-node#9")
	events := sub.Drain(nil)
	if len(events) != 1 {
		t.Fatalf("noteDuplicate emitted %d events, want 1", len(events))
	}
	last := events[len(events)-1]
	if got := fmt.Sprintf("%s/%s", last.Node, last.Detail); got != "traced-node/traced-node#9" {
		t.Errorf("duplicate event = %q, want node traced-node detail traced-node#9", got)
	}
}

// TestForwardPathAllocs gates the allocations one multicast costs per
// delivery on a quiet, converged 16-member mem ring, in both modes. The
// ceilings are the measured counts (1.19 for CAM-Chord, 2.06 for
// CAM-Koorde) plus at most half an allocation per delivery of headroom.
// The forward path allocates no per-send context (deadlines are pooled),
// no per-child closure, no per-fan-out state (spread children, flood
// neighbours, outcomes and WaitGroup are pooled) and no per-flood dedup
// map, and a CAM-Chord leaf's spread allocates nothing; what is left is
// mostly each request's boxing, which a CAM-Koorde relay does once for
// its offers and once for its floods. Bringing one of the others back
// costs about one allocation per delivery and trips the gate.
func TestForwardPathAllocs(t *testing.T) {
	const members = 16
	for _, tc := range []struct {
		mode     Mode
		capacity int
		ceiling  float64 // allocs per delivery
	}{
		{ModeCAMChord, 4, 1.5},
		{ModeCAMKoorde, 4, 2.35},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			c := newCluster(t, tc.mode, 16)
			c.grow(members, tc.capacity)
			src := c.live()[0]
			msgID, err := src.Multicast([]byte("warm-up"))
			if err != nil {
				t.Fatal(err)
			}
			c.checkExactlyOnce(msgID)

			// Count deliveries without the cluster's per-message maps, so
			// the gate measures the forward path, not the test's bookkeeping.
			var delivered atomic.Int64
			for _, n := range c.live() {
				n.cfg.OnDeliver = func(Delivery) { delivered.Add(1) }
			}
			payload := []byte("alloc gate")
			const runs = 50
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := src.Multicast(payload); err != nil {
					t.Fatal(err)
				}
			})
			if got := delivered.Load(); got != (runs+1)*members {
				t.Fatalf("%d deliveries over %d multicasts, want %d each", got, runs+1, members)
			}
			perDelivery := allocs / members
			t.Logf("%v: %.1f allocs per multicast, %.2f per delivery", tc.mode, allocs, perDelivery)
			if raceEnabled {
				return // race instrumentation allocates on its own
			}
			if perDelivery > tc.ceiling {
				t.Errorf("%.2f allocs per delivery, want at most %.2f", perDelivery, tc.ceiling)
			}
		})
	}
}
