package chord

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestPinnedOverlayDigest pins the Chord baseline bit for bit: every
// node's finger identifiers and the parent array of the broadcast tree
// from eight sources, at bases 2, 3 and 7, on 2 000-member rings in a
// sparse 32-bit and a dense 12-bit space. The digest was recorded before
// the finger ladder moved into camchord's slot enumeration; any change to
// the fingers or trees changes it.
func TestPinnedOverlayDigest(t *testing.T) {
	const want = 0x2e3dfb5fb12268f7
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, bits := range []uint{32, 12} {
		r := randomRing(t, bits, 2000, int64(bits))
		for _, base := range []int{2, 3, 7} {
			net, err := New(r, base)
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos < r.Len(); pos++ {
				for _, id := range net.FingerIDs(pos) {
					put(id)
				}
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for i := 0; i < 8; i++ {
				tree, err := net.BuildTree(rng.Intn(r.Len()))
				if err != nil {
					t.Fatal(err)
				}
				for pos := 0; pos < tree.Len(); pos++ {
					put(uint64(tree.Parent(pos)))
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest = %#x, want %#x", got, uint64(want))
	}
}
