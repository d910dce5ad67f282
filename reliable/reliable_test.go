package reliable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"camcast"
)

// recorder captures in-order deliveries and gaps per member.
type recorder struct {
	mu   sync.Mutex
	data map[string][]uint64 // receiver -> delivered seqs (order preserved)
	gaps map[string][]uint64
}

func newRecorder() *recorder {
	return &recorder{data: map[string][]uint64{}, gaps: map[string][]uint64{}}
}

func (r *recorder) config(receiver string, window int) Config {
	return Config{
		Window: window,
		OnData: func(src string, seq uint64, payload []byte) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.data[receiver] = append(r.data[receiver], seq)
		},
		OnGap: func(src string, seq uint64) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.gaps[receiver] = append(r.gaps[receiver], seq)
		},
	}
}

func (r *recorder) seqs(receiver string) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.data[receiver]))
	copy(out, r.data[receiver])
	return out
}

func (r *recorder) gapList(receiver string) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.gaps[receiver]))
	copy(out, r.gaps[receiver])
	return out
}

// buildSessions creates a converged group of n reliable sessions.
func buildSessions(t *testing.T, rec *recorder, n, window int) (*camcast.Network, []*Session) {
	t.Helper()
	net := camcast.NewNetwork()
	t.Cleanup(net.Close)
	opts := func() camcast.Options {
		return camcast.Options{Capacity: 4, Stabilize: -1, Fix: -1}
	}
	sessions := make([]*Session, n)
	var err error
	sessions[0], err = New(net, "m0", "", opts(), rec.config("m0", window))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		addr := fmt.Sprintf("m%d", i)
		sessions[i], err = New(net, addr, "m0", opts(), rec.config(addr, window))
		if err != nil {
			t.Fatal(err)
		}
		net.Settle(1)
	}
	net.Settle(3)
	return net, sessions
}

func expectSeqs(t *testing.T, got []uint64, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("delivered %d messages, want %d: %v", len(got), want, got)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestInOrderDelivery(t *testing.T) {
	rec := newRecorder()
	_, sessions := buildSessions(t, rec, 6, 32)
	for i := 0; i < 10; i++ {
		if _, err := sessions[0].Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 6; i++ {
		expectSeqs(t, rec.seqs(fmt.Sprintf("m%d", i)), 10)
	}
	if sessions[1].Outstanding() != 0 {
		t.Errorf("outstanding = %d", sessions[1].Outstanding())
	}
}

func TestRecoveryFromLoss(t *testing.T) {
	rec := newRecorder()
	net, sessions := buildSessions(t, rec, 5, 64)

	// A lossy phase: some forwards fail wholesale, losing subtrees.
	net.Transport().SetDropRate(0.35)
	const total = 30
	for i := 0; i < total; i++ {
		if _, err := sessions[0].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Transport().SetDropRate(0)

	// Announce the high-water mark until every receiver has repaired.
	for round := 0; round < 10; round++ {
		if err := sessions[0].Sync(); err != nil {
			t.Fatal(err)
		}
		for _, sess := range sessions[1:] {
			sess.Heal()
		}
		done := true
		for i := 1; i < 5; i++ {
			if len(rec.seqs(fmt.Sprintf("m%d", i))) != total {
				done = false
			}
		}
		if done {
			break
		}
	}
	for i := 1; i < 5; i++ {
		addr := fmt.Sprintf("m%d", i)
		expectSeqs(t, rec.seqs(addr), total)
		if gaps := rec.gapList(addr); len(gaps) != 0 {
			t.Errorf("%s reported gaps %v despite full buffer", addr, gaps)
		}
	}
}

func TestEvictedMessagesBecomeGaps(t *testing.T) {
	rec := newRecorder()
	net, sessions := buildSessions(t, rec, 3, 4) // tiny window

	// Partition m2 so it misses everything.
	net.Transport().SetPartition("m2", 1)
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := sessions[0].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Transport().HealPartitions()
	net.Settle(3)

	// m2 learns the high-water mark; only the last 4 messages survive in
	// m0's window, the first 6 are permanent gaps.
	if err := sessions[0].Sync(); err != nil {
		t.Fatal(err)
	}
	sessions[2].Heal()

	got := rec.seqs("m2")
	if len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("m2 recovered %v, want [7 8 9 10]", got)
	}
	gaps := rec.gapList("m2")
	if len(gaps) != 6 || gaps[0] != 1 || gaps[5] != 6 {
		t.Fatalf("m2 gaps %v, want [1..6]", gaps)
	}
	if sessions[2].Outstanding() != 0 {
		t.Errorf("outstanding = %d after gap resolution", sessions[2].Outstanding())
	}
}

func TestMultipleConcurrentSources(t *testing.T) {
	rec := newRecorder()
	_, sessions := buildSessions(t, rec, 4, 32)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sessions[s].Send([]byte{byte(s), byte(i)}); err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Wait()
	// Every member hears 3 other sources × 5 messages (own sends are not
	// re-delivered through OnData).
	for i := 0; i < 4; i++ {
		if got := len(rec.seqs(fmt.Sprintf("m%d", i))); got != 15 {
			t.Errorf("m%d delivered %d messages, want 15", i, got)
		}
	}
}

func TestNewRejectsTakenCallbacks(t *testing.T) {
	net := camcast.NewNetwork()
	defer net.Close()
	_, err := New(net, "a", "", camcast.Options{OnDeliver: func(camcast.Message) {}}, Config{})
	if !errors.Is(err, ErrTakenCallbacks) {
		t.Fatalf("err = %v", err)
	}
	_, err = New(net, "a", "", camcast.Options{
		OnRequest: func(string, []byte) ([]byte, error) { return nil, nil },
	}, Config{})
	if !errors.Is(err, ErrTakenCallbacks) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewPropagatesJoinErrors(t *testing.T) {
	net := camcast.NewNetwork()
	defer net.Close()
	if _, err := New(net, "a", "ghost", camcast.Options{Stabilize: -1, Fix: -1}, Config{}); err == nil {
		t.Fatal("join through unreachable bootstrap should fail")
	}
}

func TestForeignPayloadsIgnored(t *testing.T) {
	rec := newRecorder()
	net, _ := buildSessions(t, rec, 3, 16)
	// A plain camcast member (no reliability envelope) joins and sends raw
	// bytes; reliable sessions must not crash or mis-deliver.
	raw, err := net.Join("plain", "m0", camcast.Options{Capacity: 4, Stabilize: -1, Fix: -1})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle(3)
	if _, err := raw.MulticastContext(context.Background(), []byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"m1", "m2"} {
		if got := rec.seqs(addr); len(got) != 0 {
			t.Errorf("%s delivered foreign payloads: %v", addr, got)
		}
	}
}
