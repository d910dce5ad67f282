package camcast

// Dissemination throughput benches: the end-to-end data path the zero-copy
// work targets. Each op is one Multicast from a source with capacity =
// fan-out into a settled single-level tree of fan-out receivers, so the
// source's transport pushes fan-out copies of the payload per op —
// b.SetBytes reports that egress volume and `go test -bench` prints MB/s.
// The grid covers both transports (in-process mem, TCP loopback), the
// fan-outs the paper provisions for (2, 8, 16 ≈ c_x ranges of §6), and
// payloads from control-plane-sized to bulk (1KiB, 64KiB, 1MiB).
//
// BENCH_dissem.json records this grid before/after the single-encode blob
// path; scripts/bench_gate.py holds the line in CI. Regenerate with:
//
//	go test -run 'xxx' -bench BenchmarkMulticastThroughput -benchtime 2s .

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

const benchDissemCells = "fanout in {2,8,16} x payload in {1KiB,64KiB,1MiB}"

func benchPayloadBytes(size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i * 131)
	}
	return p
}

// benchAwaitDeliveries waits for the delivery counter to reach want;
// fan-out RPCs are acked before grandchild spreads finish, so the last
// deliveries of an op can trail the Multicast return slightly.
func benchAwaitDeliveries(b *testing.B, delivered *atomic.Int64, want int64) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d messages", delivered.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func benchDissemOpts(fanout int, delivered *atomic.Int64) Options {
	return Options{
		Capacity:  fanout,
		Stabilize: -1,
		Fix:       -1,
		OnDeliver: func(m Message) { delivered.Add(1) },
	}
}

func benchMulticastMem(b *testing.B, fanout, size int) {
	var delivered atomic.Int64
	n := NewNetwork()
	defer n.Close()
	source, err := n.Create("s", benchDissemOpts(fanout, &delivered))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fanout; i++ {
		if _, err := n.Join(fmt.Sprintf("m%d", i), "s", benchDissemOpts(fanout, &delivered)); err != nil {
			b.Fatal(err)
		}
		n.Settle(3)
	}
	n.Settle(5)
	payload := benchPayloadBytes(size)
	if _, err := source.MulticastContext(context.Background(), payload); err != nil {
		b.Fatal(err)
	}
	benchAwaitDeliveries(b, &delivered, int64(fanout+1))
	delivered.Store(0)
	b.SetBytes(int64(size * fanout))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := source.MulticastContext(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchAwaitDeliveries(b, &delivered, int64(b.N*(fanout+1)))
}

func benchMulticastTCP(b *testing.B, fanout, size int) {
	var delivered atomic.Int64
	var members []*Member
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for i := 0; i <= fanout; i++ {
		via := ""
		if i > 0 {
			via = members[0].Addr()
		}
		m, err := ListenTCP("127.0.0.1:0", via, benchDissemOpts(fanout, &delivered), HostOptions{})
		if err != nil {
			b.Fatal(err)
		}
		members = append(members, m)
		for r := 0; r < 3; r++ {
			for _, mm := range members {
				mm.StabilizeOnce()
			}
		}
	}
	for r := 0; r < 3; r++ {
		for _, m := range members {
			m.StabilizeOnce()
			m.FixAll()
		}
	}
	payload := benchPayloadBytes(size)
	if _, err := members[0].MulticastContext(context.Background(), payload); err != nil {
		b.Fatal(err)
	}
	benchAwaitDeliveries(b, &delivered, int64(fanout+1))
	delivered.Store(0)
	b.SetBytes(int64(size * fanout))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := members[0].MulticastContext(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	benchAwaitDeliveries(b, &delivered, int64(b.N*(fanout+1)))
}

// BenchmarkMulticastThroughput is the headline dissemination grid:
// mem + tcp transports, fan-out {2,8,16}, payload {1KiB,64KiB,1MiB}.
// MB/s is source egress (payload bytes x fan-out per op).
func BenchmarkMulticastThroughput(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"1KiB", 1 << 10}, {"64KiB", 1 << 16}, {"1MiB", 1 << 20}}
	for _, fanout := range []int{2, 8, 16} {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("mem/fanout%d/%s", fanout, size.name), func(b *testing.B) {
				benchMulticastMem(b, fanout, size.n)
			})
		}
	}
	if testing.Short() {
		b.Log("skipping TCP loopback cells in -short mode")
		return
	}
	for _, fanout := range []int{2, 8, 16} {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("tcp/fanout%d/%s", fanout, size.name), func(b *testing.B) {
				benchMulticastTCP(b, fanout, size.n)
			})
		}
	}
}
