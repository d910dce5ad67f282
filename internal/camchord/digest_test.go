package camchord

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"camcast/internal/multicast"
)

// digestWriter feeds integers to an FNV-64a hash in a fixed byte order.
type digestWriter struct{ h hash.Hash64 }

func (d digestWriter) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digestWriter) tree(tree *multicast.Tree) {
	for pos := 0; pos < tree.Len(); pos++ {
		d.put(uint64(tree.Parent(pos)))
	}
}

// TestPinnedOverlayDigests pins the static CAM-Chord overlay bit for bit:
// every node's neighbour identifiers and resolved neighbour nodes, and the
// parent array of the multicast tree from eight sources, under both child
// spacings and under proximity selection, on 2 000-member rings with
// heterogeneous capacities in a sparse 32-bit and a dense 12-bit space.
// The digests were recorded before the slot and segment formulas moved
// into one enumeration each; any change to the trees or tables the
// formulas produce changes a digest.
func TestPinnedOverlayDigests(t *testing.T) {
	want := map[string]uint64{
		"even":       0x8fecce2bbc172d93,
		"contiguous": 0x89be21f99468a348,
		"proximity":  0xa7c6ed185dfd57d3,
	}
	got := map[string]uint64{}
	for name := range want {
		h := fnv.New64a()
		d := digestWriter{h}
		for _, bits := range []uint{32, 12} {
			net := randomNetwork(t, bits, 2000, 2, 32, int64(bits))
			r := net.Ring()
			if name == "contiguous" {
				caps := make([]int, r.Len())
				for pos := range caps {
					caps[pos] = net.Capacity(pos)
				}
				var err error
				if net, err = NewWithSpacing(r, caps, SpacingContiguous); err != nil {
					t.Fatal(err)
				}
			}
			if name == "even" {
				for pos := 0; pos < r.Len(); pos++ {
					for _, id := range net.NeighborIDs(pos) {
						d.put(id)
					}
					for _, p := range net.NeighborNodes(pos) {
						d.put(uint64(p))
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			coord := make([]float64, r.Len())
			for i := range coord {
				coord[i] = rng.Float64() * 100
			}
			delay := func(a, b int) float64 { return math.Abs(coord[a] - coord[b]) }
			for i := 0; i < 8; i++ {
				src := rng.Intn(r.Len())
				if name == "proximity" {
					tree, delays, err := net.BuildTreeProximity(src, delay, DefaultProximitySample)
					if err != nil {
						t.Fatal(err)
					}
					d.tree(tree)
					for _, v := range delays {
						d.put(math.Float64bits(v))
					}
					continue
				}
				tree, err := net.BuildTree(src)
				if err != nil {
					t.Fatal(err)
				}
				d.tree(tree)
			}
		}
		got[name] = h.Sum64()
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest = %#x, want %#x", name, got[name], w)
		}
	}
}
