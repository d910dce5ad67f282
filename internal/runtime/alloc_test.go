package runtime

import (
	"fmt"
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
