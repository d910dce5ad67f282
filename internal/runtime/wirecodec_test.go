package runtime

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"camcast/internal/transport"
)

// wireSamples holds representative values for every registered wire type,
// including the edge cases the codec must preserve: nil versus empty byte
// slices, nil versus present optional NodeInfo pointers, negative ints,
// and empty strings. Every codec test and the fuzz seed corpus iterate
// this list, so adding a wire type without extending it fails
var gobReferenceOnce sync.Once

// registerGobReference registers every wire type with encoding/gob, which
// the codec tests and BenchmarkWireCodec use as an independent reference
// encoding (the transport itself carries only the binary codec).
func registerGobReference() {
	gobReferenceOnce.Do(func() {
		gob.Register(pingReq{})
		gob.Register(pingResp{})
		gob.Register(findSuccReq{})
		gob.Register(findSuccResp{})
		gob.Register(neighborsReq{})
		gob.Register(neighborsResp{})
		gob.Register(notifyReq{})
		gob.Register(notifyResp{})
		gob.Register(multicastReq{})
		gob.Register(multicastResp{})
		gob.Register(offerReq{})
		gob.Register(offerResp{})
		gob.Register(floodReq{})
		gob.Register(floodResp{})
		gob.Register(leavingReq{})
		gob.Register(leavingResp{})
		gob.Register(appReq{})
		gob.Register(appResp{})
	})
}

// TestWireCodecCoversAllTags below.
var wireSamples = []struct {
	name string
	val  transport.WireMarshaler
	dec  func([]byte) (any, error)
}{
	{"pingReq", pingReq{Probe: true}, decodePingReq},
	{"pingResp", pingResp{Node: NodeInfo{Addr: "10.0.0.1:7000", ID: 0xdeadbeef}}, decodePingResp},
	{"findSuccReq", findSuccReq{K: 1<<63 + 17, Hops: -3, HasCursor: true, Img: 0xfeedface, Left: 27}, decodeFindSuccReq},
	{"findSuccReq/noCursor", findSuccReq{K: 42, Hops: 1}, decodeFindSuccReq},
	{"findSuccReq/exhaustedCursor", findSuccReq{K: 9, Hops: 30, HasCursor: true, Img: 1 << 63, Left: 0}, decodeFindSuccReq},
	{"findSuccResp", findSuccResp{Node: NodeInfo{Addr: "a:1", ID: 1}, Hops: 12}, decodeFindSuccResp},
	{"neighborsReq", neighborsReq{Full: true}, decodeNeighborsReq},
	{"neighborsResp", neighborsResp{
		Pred:  &NodeInfo{Addr: "p:9", ID: 9},
		Succs: []NodeInfo{{Addr: "s1:1", ID: 1}, {Addr: "s2:2", ID: 2}},
	}, decodeNeighborsResp},
	{"neighborsResp/empty", neighborsResp{Pred: nil, Succs: nil}, decodeNeighborsResp},
	{"neighborsResp/zeroLenSuccs", neighborsResp{Succs: []NodeInfo{}}, decodeNeighborsResp},
	{"notifyReq", notifyReq{Candidate: NodeInfo{Addr: "c:3", ID: 3}}, decodeNotifyReq},
	{"notifyResp", notifyResp{Accepted: true}, decodeNotifyResp},
	{"multicastReq", multicastReq{
		MsgID:   "msg-0042",
		Source:  NodeInfo{Addr: "src:5", ID: 5},
		Payload: []byte{0, 1, 2, 0xff},
		K:       1 << 40,
		Hops:    7,
		Repair:  true,
	}, decodeMulticastReq},
	{"multicastReq/nilPayload", multicastReq{MsgID: "m"}, decodeMulticastReq},
	{"multicastResp", multicastResp{Duplicate: true}, decodeMulticastResp},
	{"offerReq", offerReq{MsgID: ""}, decodeOfferReq},
	{"offerResp", offerResp{Want: true}, decodeOfferResp},
	{"floodReq", floodReq{
		MsgID:   "flood-1",
		Source:  NodeInfo{Addr: "f:6", ID: 6},
		Payload: bytes.Repeat([]byte{0xab}, 100),
		Hops:    2,
	}, decodeFloodReq},
	{"floodResp", floodResp{}, decodeFloodResp},
	{"leavingReq", leavingReq{
		Departing: NodeInfo{Addr: "d:8", ID: 8},
		NewPred:   &NodeInfo{Addr: "np:4", ID: 4},
		NewSucc:   nil,
	}, decodeLeavingReq},
	{"leavingResp", leavingResp{Acked: true}, decodeLeavingResp},
	{"appReq/emptyPayload", appReq{Payload: []byte{}}, decodeAppReq},
	{"appResp/nilPayload", appResp{Payload: nil}, decodeAppResp},
}

// TestWireCodecCoversAllTags fails when a registered wire tag has no
// sample, keeping the round-trip/fuzz/benchmark coverage in sync with the
// message set.
func TestWireCodecCoversAllTags(t *testing.T) {
	covered := map[byte]bool{}
	for _, s := range wireSamples {
		covered[s.val.WireTag()] = true
	}
	for tag := byte(tagPingReq); tag <= tagAppResp; tag++ {
		if !covered[tag] {
			t.Errorf("wire tag %#x has no sample in wireSamples", tag)
		}
	}
}

// TestWireCodecRoundTrip verifies value-identical binary round trips for
// every wire type, including nil/empty distinctions.
func TestWireCodecRoundTrip(t *testing.T) {
	for _, s := range wireSamples {
		t.Run(s.name, func(t *testing.T) {
			enc := s.val.AppendWire(nil)
			got, err := s.dec(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, reflect.ValueOf(s.val).Interface()) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, s.val)
			}
		})
	}
}

// TestWireCodecMatchesGob verifies the binary codec against encoding/gob
// as a reference: a value decoded from its binary encoding equals the same
// value decoded from its gob encoding. Edge cases where gob itself is lossy (nil vs empty slices)
// are covered by TestWireCodecRoundTrip instead.
func TestWireCodecMatchesGob(t *testing.T) {
	registerGobReference()
	for _, s := range wireSamples {
		if bytes.Contains([]byte(s.name), []byte("/")) {
			continue // edge-case samples exercise codec-only semantics
		}
		t.Run(s.name, func(t *testing.T) {
			binGot, err := s.dec(s.val.AppendWire(nil))
			if err != nil {
				t.Fatalf("binary decode: %v", err)
			}
			var buf bytes.Buffer
			box := struct{ V any }{V: s.val}
			if err := gob.NewEncoder(&buf).Encode(&box); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			var out struct{ V any }
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if !reflect.DeepEqual(binGot, out.V) {
				t.Fatalf("binary and gob disagree:\n bin %#v\n gob %#v", binGot, out.V)
			}
		})
	}
}

// TestWireCodecRejectsTrailingBytes verifies every decoder calls Finish:
// trailing garbage after a valid encoding must be an error, not silently
// ignored.
func TestWireCodecRejectsTrailingBytes(t *testing.T) {
	for _, s := range wireSamples {
		t.Run(s.name, func(t *testing.T) {
			enc := append(s.val.AppendWire(nil), 0x00)
			if _, err := s.dec(enc); err == nil {
				t.Fatal("decoder accepted trailing bytes")
			}
		})
	}
}

// TestWireCodecAllocs enforces the codec's reason to exist: for every
// registered wire type, a binary encode+decode round trip must allocate
// strictly less than a gob round trip of the same value.
func TestWireCodecAllocs(t *testing.T) {
	registerGobReference()
	var scratch []byte
	for _, s := range wireSamples {
		s := s
		t.Run(s.name, func(t *testing.T) {
			binAllocs := testing.AllocsPerRun(200, func() {
				scratch = s.val.AppendWire(scratch[:0])
				if _, err := s.dec(scratch); err != nil {
					t.Fatal(err)
				}
			})
			gobAllocs := testing.AllocsPerRun(200, func() {
				var buf bytes.Buffer
				box := struct{ V any }{V: s.val}
				if err := gob.NewEncoder(&buf).Encode(&box); err != nil {
					t.Fatal(err)
				}
				var out struct{ V any }
				if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
					t.Fatal(err)
				}
			})
			if binAllocs >= gobAllocs {
				t.Errorf("binary codec allocates %.0f/op, gob %.0f/op: binary must be below gob", binAllocs, gobAllocs)
			}
		})
	}
}

// FuzzWireCodec fuzzes every registered decoder with arbitrary bytes. A
// decoder must never panic; when it accepts an input, re-encoding the
// decoded value and decoding again must be a fixed point (the codec is
// canonical). The seed corpus is the encoding of every sample value.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSamples {
		f.Add(s.val.WireTag(), s.val.AppendWire(nil))
	}
	decoders := map[byte]func([]byte) (any, error){}
	for _, s := range wireSamples {
		decoders[s.val.WireTag()] = s.dec
	}
	f.Fuzz(func(t *testing.T, tag byte, data []byte) {
		dec, ok := decoders[tag]
		if !ok {
			return
		}
		v1, err := dec(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		enc := v1.(transport.WireMarshaler).AppendWire(nil)
		v2, err := dec(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded value failed: %v (value %#v)", err, v1)
		}
		if !reflect.DeepEqual(v1, v2) {
			t.Fatalf("codec not canonical:\n first %#v\n second %#v", v1, v2)
		}
	})
}

// BenchmarkWireCodec compares a full encode+decode round trip through the
// binary codec against encoding/gob for every wire type.
func BenchmarkWireCodec(b *testing.B) {
	registerGobReference()
	for _, s := range wireSamples {
		if bytes.Contains([]byte(s.name), []byte("/")) {
			continue
		}
		b.Run(fmt.Sprintf("%s/binary", s.name), func(b *testing.B) {
			b.ReportAllocs()
			var scratch []byte
			for i := 0; i < b.N; i++ {
				scratch = s.val.AppendWire(scratch[:0])
				if _, err := s.dec(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/gob", s.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				box := struct{ V any }{V: s.val}
				if err := gob.NewEncoder(&buf).Encode(&box); err != nil {
					b.Fatal(err)
				}
				var out struct{ V any }
				if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
