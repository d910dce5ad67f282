// Tcpgroup: the same protocol over real TCP sockets. Each member gets its
// own TCP transport (its own listener on 127.0.0.1), exactly as separate
// processes or hosts would, and joins the group by dialing the first
// member's host:port. Demonstrates that the runtime is transport-agnostic:
// everything the other examples do in-process works across the network.
//
// Run with: go run ./examples/tcpgroup
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpgroup:", err)
		os.Exit(1)
	}
}

func run() error {
	runtime.RegisterWireTypes() // payload decoders for the TCP transport
	space := ring.MustSpace(24)

	var (
		mu        sync.Mutex
		delivered = map[string]int{} // listen address -> hops
	)

	const groupSize = 5
	var (
		transports []*transport.TCP
		nodes      []*runtime.Node
	)
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	}()

	for i := 0; i < groupSize; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		transports = append(transports, tr)
		addr := tr.Addr()
		node, err := runtime.NewNode(tr, addr, runtime.Config{
			Space:    space,
			Mode:     runtime.ModeCAMChord,
			Capacity: 3,
			OnDeliver: func(d runtime.Delivery) {
				mu.Lock()
				defer mu.Unlock()
				delivered[addr] = d.Hops
			},
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, node)

		if i == 0 {
			if err := node.Bootstrap(); err != nil {
				return err
			}
			fmt.Printf("bootstrapped %s (id %d)\n", addr, node.Self().ID)
			continue
		}
		if err := node.Join(transports[0].Addr()); err != nil {
			return err
		}
		fmt.Printf("joined       %s (id %d) via %s\n", addr, node.Self().ID, transports[0].Addr())
		for r := 0; r < 2; r++ {
			for _, n := range nodes {
				n.StabilizeOnce()
			}
		}
	}

	// Converge tables, then multicast from the last member.
	for r := 0; r < 3; r++ {
		for _, n := range nodes {
			n.StabilizeOnce()
		}
		for _, n := range nodes {
			n.FixAll()
		}
	}
	src := nodes[groupSize-1]
	msgID, err := src.MulticastContext(context.Background(), []byte("hello over TCP"))
	if err != nil {
		return err
	}

	mu.Lock()
	defer mu.Unlock()
	addrs := make([]string, 0, len(delivered))
	for a := range delivered {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	fmt.Printf("\nmulticast %s from %s reached %d/%d members over real sockets:\n",
		msgID, src.Self().Addr, len(delivered), groupSize)
	for _, a := range addrs {
		fmt.Printf("  %s (%d hops)\n", a, delivered[a])
	}
	if len(delivered) != groupSize {
		return fmt.Errorf("message missed members")
	}
	return nil
}
