package main

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"camcast/internal/ids"
	"camcast/internal/ring"
	"camcast/internal/workload"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := GenerateInputs(w, 7), GenerateInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs twice", w.Name)
		}
		c := GenerateInputs(w, 8)
		if reflect.DeepEqual(a.Addrs, c.Addrs) || reflect.DeepEqual(a.Capacities, c.Capacities) ||
			reflect.DeepEqual(a.Sources, c.Sources) || reflect.DeepEqual(a.Fill, c.Fill) {
			t.Errorf("%s: seeds 7 and 8 share an input", w.Name)
		}
	}
}

func TestInputsFitTheWorkload(t *testing.T) {
	hasher := ids.NewHasher(ring.MustSpace(ringBits))
	for _, w := range workloads {
		in := GenerateInputs(w, 3)
		if len(in.Addrs) != w.Members || len(in.Capacities) != w.Members {
			t.Fatalf("%s: %d addresses, %d capacities for %d members", w.Name, len(in.Addrs), len(in.Capacities), w.Members)
		}
		if got := indexBytes + len(in.Fill); got != w.Payload {
			t.Errorf("%s: payload %d bytes, want %d", w.Name, got, w.Payload)
		}
		seen := make(map[ring.ID]bool)
		for _, addr := range append(append([]string(nil), in.Addrs...), in.Spare...) {
			id := hasher.ID(addr)
			if seen[id] {
				t.Fatalf("%s: identifier collision at %s", w.Name, addr)
			}
			seen[id] = true
			if w.TCP {
				port, err := strconv.Atoi(strings.TrimPrefix(addr, "127.0.0.1:"))
				if err != nil || port < portLo || port >= portHi {
					t.Fatalf("%s: address %s outside the seeded port range", w.Name, addr)
				}
			}
		}
		for _, c := range in.Capacities {
			if c < workload.DefaultCapacityLo || c > workload.DefaultCapacityHi {
				t.Fatalf("%s: capacity %d outside U[%d,%d]", w.Name, c, workload.DefaultCapacityLo, workload.DefaultCapacityHi)
			}
		}
		for _, s := range in.Sources {
			if s < 0 || s >= w.Members {
				t.Fatalf("%s: source %d out of range", w.Name, s)
			}
		}
	}
}
