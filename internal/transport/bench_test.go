package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"camcast/internal/obsv"
)

// benchPayload mirrors a typical control-plane RPC body: a short string key
// plus a small binary payload, the shape of multicast segment headers.
type benchPayload struct {
	Key   string
	Value []byte
	Seq   uint64
}

var benchRegisterOnce sync.Once

func benchSetup(b *testing.B, instrument ...*obsv.Registry) (*TCP, *TCP) {
	b.Helper()
	benchRegisterOnce.Do(func() { registerBenchPayload() })
	a, err := NewTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	for _, reg := range instrument {
		a.Instrument(reg)
		srv.Instrument(reg)
	}
	b.Cleanup(func() {
		a.Close()
		srv.Close()
	})
	srv.Register(srv.Addr(), func(from, kind string, payload any) (any, error) {
		return payload, nil
	})
	return a, srv
}

// BenchmarkTCPCall measures one serial request/response exchange.
func BenchmarkTCPCall(b *testing.B) {
	a, srv := benchSetup(b)
	ctx := context.Background()
	req := benchPayload{Key: "segment", Value: make([]byte, 64), Seq: 1}
	// Warm the pooled connection so dial cost is not in the loop.
	if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkCallParallel measures in-process calls from every
// processor at once on an instrumented network of 4 000 endpoints, the
// mem-runtime shape: each goroutine walks its own sequence of callers and
// destinations, so calls contend only on what the network shares.
func BenchmarkNetworkCallParallel(b *testing.B) {
	const endpoints = 4000
	n := NewNetwork(1)
	n.Instrument(obsv.NewRegistry())
	addrs := make([]string, endpoints)
	echo := func(from, kind string, payload any) (any, error) { return payload, nil }
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)
		n.Register(addrs[i], echo)
	}
	ctx := context.Background()
	var payload any = 7
	var worker atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 7919
		for pb.Next() {
			i++
			from, to := addrs[i%endpoints], addrs[(i*31)%endpoints]
			if _, err := n.Call(ctx, from, to, "offer", payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchParallel issues b.N calls from exactly n concurrent goroutines
// against one destination, the fan-out pattern ForwardParallel produces:
// a capacity-c node pushing c child segments at once.
func benchParallel(b *testing.B, n int, instrument ...*obsv.Registry) {
	a, srv := benchSetup(b, instrument...)
	ctx := context.Background()
	req := benchPayload{Key: "segment", Value: make([]byte, 64), Seq: 1}
	if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	per := b.N / n
	extra := b.N % n
	for w := 0; w < n; w++ {
		iters := per
		if w < extra {
			iters++
		}
		wg.Add(1)
		go func(iters int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(iters)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
}

func BenchmarkTCPCallParallel1(b *testing.B)  { benchParallel(b, 1) }
func BenchmarkTCPCallParallel4(b *testing.B)  { benchParallel(b, 4) }
func BenchmarkTCPCallParallel16(b *testing.B) { benchParallel(b, 16) }

// BenchmarkTCPCallParallel16Instrumented is the same pipelined fan-out with
// a metrics registry attached on both ends: latency histogram, in-flight
// gauge, call counters, and flush-batch histogram all live.
func BenchmarkTCPCallParallel16Instrumented(b *testing.B) {
	benchParallel(b, 16, obsv.NewRegistry())
}

// BenchmarkTCPCallPayloadSizes measures serial exchanges across payload
// sizes, separating framing overhead from byte-shovelling throughput.
func BenchmarkTCPCallPayloadSizes(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			a, srv := benchSetup(b)
			ctx := context.Background()
			req := benchPayload{Key: "segment", Value: make([]byte, size), Seq: 1}
			if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Call(ctx, "bench", srv.Addr(), "echo", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
