package runtime

import (
	"fmt"
	"testing"
	"time"

	"camcast/internal/timing"
)

// TestHandlerErrorDoesNotMarkSuspect: a peer whose handler rejects a
// request answered it, so the failure detector does not hold it suspect.
func TestHandlerErrorDoesNotMarkSuspect(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(2, 4)
	a, b := c.live()[0], c.live()[1]
	if _, err := a.call(b.Self().Addr, "no-such-kind", nil); err == nil {
		t.Fatal("an unknown rpc kind should fail in the handler")
	}
	if a.isSuspect(b.Self().Addr) {
		t.Fatal("a handler error marked the peer suspect")
	}
}

// TestReplyClearsSuspicion: a call that cannot reach its peer marks it
// suspect, and the peer's next reply clears the mark long before the
// suspicion window runs out.
func TestReplyClearsSuspicion(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) { cfg.SuspicionWindow = time.Hour }
	c.grow(2, 4)
	a, b := c.live()[0], c.live()[1]
	addr := b.Self().Addr

	c.net.SetPartition(addr, 1)
	if _, err := a.call(addr, kindPing, pingReq{}); err == nil {
		t.Fatal("a call across the partition succeeded")
	}
	if !a.isSuspect(addr) {
		t.Fatal("an unreachable peer was not marked suspect")
	}
	c.net.HealPartitions()
	if _, err := a.call(addr, kindPing, pingReq{}); err != nil {
		t.Fatal(err)
	}
	if a.isSuspect(addr) {
		t.Fatal("a reply did not clear suspicion")
	}
}

// TestSuspectsBounded fills the failure detector's map past its cap: the
// cap holds while every entry is live, and an insert past it sweeps the
// entries that have expired.
func TestSuspectsBounded(t *testing.T) {
	clock := timing.NewVirtual(time.Unix(0, 0))
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) {
		cfg.Clock = clock
		cfg.SuspicionWindow = time.Second
	}
	c.grow(1, 4)
	n := c.live()[0]
	size := func() int {
		n.suspectMu.Lock()
		defer n.suspectMu.Unlock()
		if got := int(n.nsuspects.Load()); got != len(n.suspects) {
			t.Fatalf("nsuspects = %d, map holds %d", got, len(n.suspects))
		}
		return len(n.suspects)
	}

	for i := 0; i < suspectMaxLen+500; i++ {
		n.markSuspect(fmt.Sprintf("10.0.0.%d:1", i))
	}
	if got := size(); got != suspectMaxLen {
		t.Fatalf("suspects map holds %d entries, want the %d cap", got, suspectMaxLen)
	}
	if n.isSuspect("10.0.0.0:1") || !n.isSuspect(fmt.Sprintf("10.0.0.%d:1", suspectMaxLen+499)) {
		t.Fatal("the cap did not evict the earliest-expiring entries")
	}

	clock.Advance(2 * time.Second)
	n.markSuspect("10.0.1.0:1")
	if got := size(); got != 1 {
		t.Fatalf("suspects map holds %d entries after its others expired, want 1", got)
	}
}

// TestIsolatedMemberRejoinsAfterHeal: a member cut off long enough for
// every successor-list entry to fail a call falls back to a ring of one.
// Once the partition heals it rejoins through the last successor it
// dropped, and the ring is exact again.
func TestIsolatedMemberRejoinsAfterHeal(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(8, 4)
	cut := c.live()[3]
	c.net.SetPartition(cut.Self().Addr, 1)
	for i := 0; i <= succListLen; i++ {
		cut.StabilizeOnce()
	}
	if succs := cut.SuccessorList(); len(succs) != 1 || succs[0].Addr != cut.Self().Addr {
		t.Fatalf("cut-off member's successors = %v, want itself alone", succs)
	}

	c.net.HealPartitions()
	c.converge(2)
	c.checkRing()
	msgID, err := c.live()[0].Multicast([]byte("healed"))
	if err != nil {
		t.Fatal(err)
	}
	c.checkExactlyOnce(msgID)
}

// TestTableFaultsQuietOnConvergedRing: on a converged ring, only the first
// message resolves children by lookup; later clean multicasts answer every
// confirmation from the memo and count no table faults.
func TestTableFaultsQuietOnConvergedRing(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	c.grow(20, 4)
	faults := func() uint64 {
		return sumStats(c.live(), func(s Stats) uint64 { return s.TableFaults })
	}
	src := c.live()[0]
	for i := 0; i < 3; i++ {
		before := faults()
		msgID, err := src.Multicast([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		c.checkExactlyOnce(msgID)
		if added := faults() - before; i > 0 && added != 0 {
			t.Errorf("clean multicast %d added %d table faults, want 0", i+1, added)
		}
	}
}
