package camkoorde

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestPinnedOverlayDigest pins the static CAM-Koorde overlay bit for bit:
// every node's three neighbour identifier groups and resolved neighbour
// nodes, and the parent array and duplicate-offer count of the flood tree
// from eight sources, on 2 000-member rings with capacities 4..32 (every
// shape of the second and third groups) in a sparse 32-bit and a dense
// 12-bit space. The digest was recorded before the group sizes moved into
// one derivation; any change to the tables or flood trees changes it.
func TestPinnedOverlayDigest(t *testing.T) {
	const want = 0x6c03974d5a13777
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, bits := range []uint{32, 12} {
		net := randomNetwork(t, bits, 2000, 4, 32, int64(bits))
		r := net.Ring()
		for pos := 0; pos < r.Len(); pos++ {
			basic, second, third := net.Groups(pos)
			for _, g := range [][]uint64{basic, second, third} {
				put(uint64(len(g)))
				for _, id := range g {
					put(id)
				}
			}
			for _, p := range net.NeighborNodes(pos) {
				put(uint64(p))
			}
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		for i := 0; i < 8; i++ {
			tree, redundant, err := net.BuildTree(rng.Intn(r.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos < tree.Len(); pos++ {
				put(uint64(tree.Parent(pos)))
			}
			put(uint64(redundant))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest = %#x, want %#x", got, uint64(want))
	}
}
