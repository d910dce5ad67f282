// Churn: resilience of the two CAM systems. Part 1 reproduces the paper's
// qualitative claim (Sections 2 and 7) at simulator scale: after mass
// failure with no repair, CAM-Koorde's flooding mesh keeps delivering where
// CAM-Chord's single tree path breaks, and its advantage grows with node
// capacity. Part 2 shows the live runtime healing through successor lists
// while members crash without notice.
//
// Run with: go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"camcast"
	"camcast/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := staticResilience(); err != nil {
		return err
	}
	fmt.Println()
	return liveCrashRecovery()
}

// staticResilience reruns the mass-failure ablation at a 10,000-member
// scale and prints the survival table.
func staticResilience() error {
	fmt.Println("== delivery after mass failure, no repair (10,000 members) ==")
	res, err := experiments.AblationResilience(experiments.Config{
		N: 10000, Sources: 1, Seed: 11, Bits: 16,
	})
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "failed fraction")
	for _, s := range res.Series {
		fmt.Fprintf(w, "\t%s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range res.Series[0].Points {
		fmt.Fprintf(w, "%.0f%%", res.Series[0].Points[i].X*100)
		for _, s := range res.Series {
			fmt.Fprintf(w, "\t%.1f%%", s.Points[i].Y*100)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// liveCrashRecovery crashes members of a live group and shows multicast
// recovering as stabilization repairs the ring.
func liveCrashRecovery() error {
	fmt.Println("== live crash recovery (CAM-Chord runtime, 20 members) ==")
	net := camcast.NewNetwork()
	defer net.Close()

	delivered := make(chan string, 1024)
	opts := func(member string) camcast.Options {
		return camcast.Options{
			Capacity:  4,
			Stabilize: -1, // deterministic demo: repair rounds are explicit
			Fix:       -1,
			OnDeliver: func(m camcast.Message) { delivered <- member },
		}
	}

	if _, err := net.Create("m0", opts("m0")); err != nil {
		return err
	}
	for i := 1; i < 20; i++ {
		addr := fmt.Sprintf("m%d", i)
		if _, err := net.Join(addr, "m0", opts(addr)); err != nil {
			return err
		}
		net.Settle(1)
	}
	net.Settle(3)

	count := func(msgErr error) int {
		if msgErr != nil {
			return -1
		}
		n := 0
		for {
			select {
			case <-delivered:
				n++
			case <-time.After(20 * time.Millisecond):
				return n
			}
		}
	}

	src, err := net.Member("m3")
	if err != nil {
		return err
	}
	_, err = src.MulticastContext(context.Background(), []byte("before crash"))
	fmt.Printf("before crashes:            %d/20 members reached\n", count(err))

	// Five members crash without any notification.
	for _, addr := range []string{"m5", "m9", "m12", "m15", "m18"} {
		m, err := net.Member(addr)
		if err != nil {
			return err
		}
		m.Close()
	}
	_, err = src.MulticastContext(context.Background(), []byte("right after crash"))
	fmt.Printf("immediately after 5 crash: %d/15 survivors reached (stale tables)\n", count(err))

	// Repair: stabilization prunes dead successors, table refresh re-routes.
	net.Settle(4)
	_, err = src.MulticastContext(context.Background(), []byte("after repair"))
	fmt.Printf("after repair rounds:       %d/15 survivors reached\n", count(err))
	return nil
}
