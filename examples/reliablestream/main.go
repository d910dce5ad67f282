// Reliablestream: lossy-network streaming with the reliability layer. The
// paper motivates capacity-aware multicast with sustained throughput
// "particularly in the case of reliable delivery"; this example streams a
// numbered feed through a CAM-Chord group while the transport drops 30% of
// messages, then lets receivers NACK-repair until every chunk has arrived
// in order.
//
// Run with: go run ./examples/reliablestream
package main

import (
	"fmt"
	"os"
	"sync"

	"camcast"
	"camcast/reliable"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reliablestream:", err)
		os.Exit(1)
	}
}

func run() error {
	net := camcast.NewNetwork()
	defer net.Close()

	var (
		mu       sync.Mutex
		received = map[string][]uint64{}
		gaps     = map[string][]uint64{}
	)
	cfg := func(member string) reliable.Config {
		return reliable.Config{
			Window: 64,
			OnData: func(src string, seq uint64, payload []byte) {
				mu.Lock()
				defer mu.Unlock()
				received[member] = append(received[member], seq)
			},
			OnGap: func(src string, seq uint64) {
				mu.Lock()
				defer mu.Unlock()
				gaps[member] = append(gaps[member], seq)
			},
		}
	}
	opts := func() camcast.Options {
		return camcast.Options{Capacity: 4, Stabilize: -1, Fix: -1}
	}

	// One streamer, five subscribers.
	create := func(o camcast.Options) (*camcast.Member, error) { return net.Create("streamer", o) }
	streamer, err := reliable.New(create, opts(), reliable.Config{})
	if err != nil {
		return err
	}
	members := []string{"sub-1", "sub-2", "sub-3", "sub-4", "sub-5"}
	sessions := make([]*reliable.Session, len(members))
	for i, m := range members {
		join := func(o camcast.Options) (*camcast.Member, error) { return net.Join(m, "streamer", o) }
		if sessions[i], err = reliable.New(join, opts(), cfg(m)); err != nil {
			return err
		}
		net.Settle(1)
	}
	net.Settle(3)

	// Stream 40 chunks while the network drops 30% of all packets: entire
	// multicast subtrees vanish.
	const chunks = 40
	net.Transport().SetDropRate(0.30)
	for i := 1; i <= chunks; i++ {
		if _, err := streamer.Send([]byte(fmt.Sprintf("chunk-%03d", i))); err != nil {
			return err
		}
	}
	net.Transport().SetDropRate(0)

	mu.Lock()
	fmt.Println("after the lossy phase (30% drop rate):")
	for _, m := range members {
		fmt.Printf("  %s received %2d/%d chunks\n", m, len(received[m]), chunks)
	}
	mu.Unlock()

	// The streamer announces its high-water mark; subscribers NACK-repair.
	for round := 0; round < 8; round++ {
		if err := streamer.Sync(); err != nil {
			return err
		}
		for _, s := range sessions {
			s.Heal()
		}
		mu.Lock()
		done := true
		for _, m := range members {
			if len(received[m]) != chunks {
				done = false
			}
		}
		mu.Unlock()
		if done {
			break
		}
	}

	fmt.Println("\nafter sync + NACK repair:")
	mu.Lock()
	defer mu.Unlock()
	for _, m := range members {
		seqs := received[m]
		inOrder := true
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				inOrder = false
			}
		}
		fmt.Printf("  %s received %2d/%d chunks, in order: %v, unrecoverable: %d\n",
			m, len(seqs), chunks, inOrder, len(gaps[m]))
		if len(seqs) != chunks || !inOrder {
			return fmt.Errorf("%s did not recover the full ordered stream", m)
		}
	}
	return nil
}
