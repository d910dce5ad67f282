package main

import (
	"fmt"
	"math/rand"

	"camcast/internal/ids"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/workload"
)

// ringBits is the identifier space every workload's group lives in.
const ringBits = 32

// Workload is one set of inputs the benchmark runs: a group shape, its
// transport and its payload size.
type Workload struct {
	Name    string
	Mode    runtime.Mode
	TCP     bool // each member on its own loopback transport.TCP
	Members int
	Payload int // bytes per multicast, message index included

	// Setups is how many groups a run builds, one after another;
	// setup_s and bytes_per_member are medians over them and the last one
	// carries the timed traffic.
	Setups int
	// Warmup is the number of untimed multicasts after each set-up on the
	// in-memory transport (TCP set-up already sends one from every member).
	Warmup int
	// MaxMessages bounds one timed phase, sizing the checker up front.
	MaxMessages int
	// SpanCap is the trace buffer size in spans.
	SpanCap int
}

var workloads = []Workload{
	{Name: "chord-mem-4k", Mode: runtime.ModeCAMChord, Members: 4000, Payload: 1 << 10,
		Setups: 7, Warmup: 8, MaxMessages: 1 << 12, SpanCap: 1 << 21},
	{Name: "koorde-mem-2k", Mode: runtime.ModeCAMKoorde, Members: 2000, Payload: 1 << 10,
		Setups: 7, Warmup: 8, MaxMessages: 1 << 13, SpanCap: 1 << 21},
	{Name: "chord-tcp-64", Mode: runtime.ModeCAMChord, TCP: true, Members: 64, Payload: 1 << 10,
		Setups: 9, MaxMessages: 1 << 15, SpanCap: 1 << 20},
	// bulk-tcp-16 makes the per-byte path (blob pool, writev, direct-to-blob
	// frame reads) the main cost. It runs by name but is not one of the
	// repository's gated workloads: on a shared two-core VM its p95 doubled
	// whenever the host was contended, spreading ten-seed sets past any
	// bound a regression gate could use.
	{Name: "bulk-tcp-16", Mode: runtime.ModeCAMChord, TCP: true, Members: 16, Payload: 256 << 10,
		Setups: 15, MaxMessages: 1 << 15, SpanCap: 1 << 19},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Inputs is everything a run feeds the program, generated from the seed
// alone.
type Inputs struct {
	// Addrs are the member addresses in creation order. On TCP they are
	// loopback listen addresses; Spare holds further ones to fall back to,
	// in order, when a port is taken on the host.
	Addrs []string
	Spare []string
	// Capacities[i] is member i's c_x, uniform over the paper's default
	// range.
	Capacities []int
	// Sources is the source member of each multicast, cycled.
	Sources []int
	// Fill is the payload after its 8-byte message index.
	Fill []byte
}

// setupSeeds derives the seed of each of a run's n set-ups from the run's
// seed.
func setupSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// Seeded loopback ports lie below the host's ephemeral range, so outgoing
// connections never take one.
const (
	portLo    = 20000
	portHi    = 32000
	spareAddr = 32
	sourceLen = 1 << 12
)

// GenerateInputs derives a workload's inputs from seed. Addresses whose
// ring identifiers collide are skipped, so every generated group installs.
func GenerateInputs(w Workload, seed int64) Inputs {
	rng := rand.New(rand.NewSource(seed))
	hasher := ids.NewHasher(ring.MustSpace(ringBits))
	usedID := make(map[ring.ID]bool)
	usedPort := make(map[int]bool)
	next := func() string {
		for {
			var addr string
			if w.TCP {
				port := portLo + rng.Intn(portHi-portLo)
				if usedPort[port] {
					continue
				}
				usedPort[port] = true
				addr = fmt.Sprintf("127.0.0.1:%d", port)
			} else {
				addr = fmt.Sprintf("m-%016x", rng.Uint64())
			}
			if id := hasher.ID(addr); !usedID[id] {
				usedID[id] = true
				return addr
			}
		}
	}
	var in Inputs
	for i := 0; i < w.Members; i++ {
		in.Addrs = append(in.Addrs, next())
	}
	if w.TCP {
		for i := 0; i < spareAddr; i++ {
			in.Spare = append(in.Spare, next())
		}
	}
	span := workload.DefaultCapacityHi - workload.DefaultCapacityLo + 1
	for i := 0; i < w.Members; i++ {
		in.Capacities = append(in.Capacities, workload.DefaultCapacityLo+rng.Intn(span))
	}
	for i := 0; i < sourceLen; i++ {
		in.Sources = append(in.Sources, rng.Intn(w.Members))
	}
	in.Fill = make([]byte, w.Payload-indexBytes)
	rng.Read(in.Fill)
	return in
}
