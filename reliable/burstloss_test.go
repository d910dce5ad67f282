package reliable

import (
	"fmt"
	"testing"
	"time"

	"camcast"
)

// TestBurstLossDuringRepairMem is the reliability layer's cut of the
// burst-loss-during-repair scenario: a member crashes in the middle of a
// drop window, so the orphan-subtree repairs and the NACK/retransmission
// traffic that cover the crash are themselves lossy. The stream must still
// come out complete and in order at every survivor once the window ends.
func TestBurstLossDuringRepairMem(t *testing.T) {
	rec := newRecorder()
	net, sessions := buildSessions(t, rec, 6, 64)

	// Open the loss window, lose a member mid-window, keep publishing.
	net.Transport().SetDropRate(0.3)
	const total = 15
	for i := 0; i < total; i++ {
		if _, err := sessions[0].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == total/2 {
			sessions[4].Member().Close()
		}
	}
	net.Transport().SetDropRate(0)
	net.Settle(3)

	// Post-heal: announce the high-water mark and let survivors NACK their
	// way to a complete stream.
	survivors := []int{1, 2, 3, 5}
	for round := 0; round < 10; round++ {
		if err := sessions[0].Sync(); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, i := range survivors {
			sessions[i].Heal()
			if len(rec.seqs(fmt.Sprintf("m%d", i))) != total {
				done = false
			}
		}
		if done {
			break
		}
	}

	for _, i := range survivors {
		addr := fmt.Sprintf("m%d", i)
		expectSeqs(t, rec.seqs(addr), total)
		if gaps := rec.gapList(addr); len(gaps) != 0 {
			t.Errorf("%s reported gaps %v; window 64 holds the whole stream", addr, gaps)
		}
		if out := sessions[i].Outstanding(); out != 0 {
			t.Errorf("m%d still has %d outstanding after repair", i, out)
		}
	}
}

// TestBurstLossDuringRepairTCP runs the same shape over real sockets. The
// TCP transport has no drop-rate knob, so the burst loss is the real kind:
// a member's listener dies mid-stream and every forward routed through it
// fails until the overlay repairs around the corpse — while the sender
// keeps publishing. Survivors must recover the full ordered stream via
// NACKs once maintenance has healed the routes.
func TestBurstLossDuringRepairTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short runs")
	}
	rec := newRecorder()
	opts := func() camcast.Options {
		return camcast.Options{
			Capacity:       4,
			Stabilize:      -1,
			Fix:            -1,
			ForwardTimeout: 2 * time.Second,
		}
	}
	listen := func(via string) func(camcast.Options) (*camcast.Member, error) {
		return func(o camcast.Options) (*camcast.Member, error) {
			return camcast.ListenTCP("127.0.0.1:0", via, o, camcast.HostOptions{RPCTimeout: 2 * time.Second})
		}
	}

	const n = 4
	sessions := make([]*Session, n)
	var err error
	for i := 0; i < n; i++ {
		via := ""
		if i > 0 {
			via = sessions[0].Member().Addr()
		}
		sessions[i], err = New(listen(via), opts(), rec.config(fmt.Sprintf("t%d", i), 64))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for j := 0; j <= i; j++ {
				sessions[j].Member().StabilizeOnce()
			}
		}
	}
	defer func() {
		for i, sess := range sessions {
			if i == 3 {
				continue // closed mid-test
			}
			sess.Member().Close()
		}
	}()
	settle := func(skip int) {
		for r := 0; r < 3; r++ {
			for i, sess := range sessions {
				if i == skip {
					continue
				}
				m := sess.Member()
				m.StabilizeOnce()
				m.FixAll()
			}
		}
	}
	settle(-1)

	const total = 10
	for i := 0; i < total; i++ {
		if _, err := sessions[0].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == total/2 {
			// Mid-stream crash: the listener vanishes without a leave, so
			// in-flight forwards to it time out and its subtree orphans.
			sessions[3].Member().Close()
		}
	}
	settle(3)

	survivors := []int{1, 2}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := sessions[0].Sync(); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, i := range survivors {
			sessions[i].Heal()
			if len(rec.seqs(fmt.Sprintf("t%d", i))) != total {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for _, i := range survivors {
				t.Logf("t%d got %v", i, rec.seqs(fmt.Sprintf("t%d", i)))
			}
			t.Fatal("survivors never recovered the full stream")
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, i := range survivors {
		addr := fmt.Sprintf("t%d", i)
		expectSeqs(t, rec.seqs(addr), total)
		if gaps := rec.gapList(addr); len(gaps) != 0 {
			t.Errorf("%s reported gaps %v; nothing was evicted", addr, gaps)
		}
	}
}
