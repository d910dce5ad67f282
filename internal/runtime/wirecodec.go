package runtime

import (
	"sync"

	"camcast/internal/ring"
	"camcast/internal/transport"
)

// Hand-rolled binary marshaling for every runtime RPC payload (the types in
// wire.go). The message set is closed, so each type gets a one-byte tag and
// implements transport.WireMarshaler; RegisterWireTypes installs the
// matching decoders. The encoding mirrors the field order of the structs —
// varints for integers, length-prefixed strings/bytes, presence bytes for
// optional fields — and decodes to the same values encoding/gob would
// (wirecodec_test.go checks this per type against gob as a reference).

// Wire type tags, one per payload type, starting at WireTagUserMin.
const (
	tagPingReq       = transport.WireTagUserMin + iota // 0x10
	tagPingResp                                        // 0x11
	tagFindSuccReq                                     // 0x12
	tagFindSuccResp                                    // 0x13
	tagNeighborsReq                                    // 0x14
	tagNeighborsResp                                   // 0x15
	tagNotifyReq                                       // 0x16
	tagNotifyResp                                      // 0x17
	tagMulticastReq                                    // 0x18
	tagMulticastResp                                   // 0x19
	tagOfferReq                                        // 0x1a
	tagOfferResp                                       // 0x1b
	tagFloodReq                                        // 0x1c
	tagFloodResp                                       // 0x1d
	tagLeavingReq                                      // 0x1e
	tagLeavingResp                                     // 0x1f
	tagAppReq                                          // 0x20
	tagAppResp                                         // 0x21
)

func appendNodeInfo(b []byte, n NodeInfo) []byte {
	b = transport.AppendString(b, n.Addr)
	return transport.AppendUvarint(b, uint64(n.ID))
}

func readNodeInfo(r *transport.WireReader) NodeInfo {
	addr := r.String()
	id := ring.ID(r.Uvarint())
	return NodeInfo{Addr: addr, ID: id}
}

// appendNodeInfoPtr encodes an optional NodeInfo as a presence byte plus
// the value.
func appendNodeInfoPtr(b []byte, n *NodeInfo) []byte {
	if n == nil {
		return transport.AppendBool(b, false)
	}
	b = transport.AppendBool(b, true)
	return appendNodeInfo(b, *n)
}

func readNodeInfoPtr(r *transport.WireReader) *NodeInfo {
	if !r.Bool() {
		return nil
	}
	n := readNodeInfo(r)
	return &n
}

// appendNodeInfos encodes a slice with a nil-preserving count prefix
// (0 = nil, count+1 otherwise), so decoded values compare deep-equal.
func appendNodeInfos(b []byte, ns []NodeInfo) []byte {
	if ns == nil {
		return transport.AppendUvarint(b, 0)
	}
	b = transport.AppendUvarint(b, uint64(len(ns))+1)
	for _, n := range ns {
		b = appendNodeInfo(b, n)
	}
	return b
}

func readNodeInfos(r *transport.WireReader) []NodeInfo {
	n := r.Uvarint()
	if n == 0 || r.Err() != nil {
		return nil
	}
	n--
	// Cap the eager allocation; a lying count fails in the loop below.
	capHint := n
	if capHint > 1024 {
		capHint = 1024
	}
	ns := make([]NodeInfo, 0, capHint)
	for i := uint64(0); i < n; i++ {
		ns = append(ns, readNodeInfo(r))
		if r.Err() != nil {
			return nil
		}
	}
	return ns
}

func (pingReq) WireTag() byte { return tagPingReq }
func (p pingReq) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Probe)
}
func decodePingReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := pingReq{Probe: r.Bool()}
	return p, r.Finish()
}

func (pingResp) WireTag() byte { return tagPingResp }
func (p pingResp) AppendWire(b []byte) []byte {
	return appendNodeInfo(b, p.Node)
}
func decodePingResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := pingResp{Node: readNodeInfo(r)}
	return p, r.Finish()
}

func (findSuccReq) WireTag() byte { return tagFindSuccReq }
func (p findSuccReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(p.K))
	b = transport.AppendVarint(b, int64(p.Hops))
	// v2: optional digit-routing cursor, presence byte + (Img, Left).
	b = transport.AppendBool(b, p.HasCursor)
	if p.HasCursor {
		b = transport.AppendUvarint(b, uint64(p.Img))
		b = transport.AppendUvarint(b, uint64(p.Left))
	}
	return b
}
func decodeFindSuccReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := findSuccReq{K: ring.ID(r.Uvarint()), Hops: int(r.Varint())}
	if p.HasCursor = r.Bool(); p.HasCursor {
		p.Img = ring.ID(r.Uvarint())
		p.Left = uint32(r.Uvarint())
	}
	return p, r.Finish()
}

func (findSuccResp) WireTag() byte { return tagFindSuccResp }
func (p findSuccResp) AppendWire(b []byte) []byte {
	b = appendNodeInfo(b, p.Node)
	return transport.AppendVarint(b, int64(p.Hops))
}
func decodeFindSuccResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := findSuccResp{Node: readNodeInfo(r), Hops: int(r.Varint())}
	return p, r.Finish()
}

func (neighborsReq) WireTag() byte { return tagNeighborsReq }
func (p neighborsReq) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Full)
}
func decodeNeighborsReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := neighborsReq{Full: r.Bool()}
	return p, r.Finish()
}

func (neighborsResp) WireTag() byte { return tagNeighborsResp }
func (p neighborsResp) AppendWire(b []byte) []byte {
	b = appendNodeInfoPtr(b, p.Pred)
	return appendNodeInfos(b, p.Succs)
}
func decodeNeighborsResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := neighborsResp{Pred: readNodeInfoPtr(r), Succs: readNodeInfos(r)}
	return p, r.Finish()
}

func (notifyReq) WireTag() byte { return tagNotifyReq }
func (p notifyReq) AppendWire(b []byte) []byte {
	return appendNodeInfo(b, p.Candidate)
}
func decodeNotifyReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := notifyReq{Candidate: readNodeInfo(r)}
	return p, r.Finish()
}

func (notifyResp) WireTag() byte { return tagNotifyResp }
func (p notifyResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Accepted)
}
func decodeNotifyResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := notifyResp{Accepted: r.Bool()}
	return p, r.Finish()
}

// multicastReq and floodReq — the two bulk payload carriers — encode their
// payload bytes last (wire format v2) and implement transport.BlobMarshaler:
// AppendWireHead emits everything up to and including the payload's length
// framing, and the payload bytes themselves ride out of the shared blob via
// the transport's scatter-gather writer. AppendWire stays the canonical
// (equivalent) whole-value encoding for the codec tests, fuzzers, and
// blob-less sends.

func (multicastReq) WireTag() byte { return tagMulticastReq }
func (p multicastReq) AppendWireHead(b []byte) []byte {
	b = transport.AppendString(b, p.MsgID)
	b = appendNodeInfo(b, p.Source)
	b = transport.AppendUvarint(b, uint64(p.K))
	b = transport.AppendVarint(b, int64(p.Hops))
	b = transport.AppendBool(b, p.Repair)
	return transport.AppendBytesHead(b, p.Payload)
}
func (p multicastReq) AppendWire(b []byte) []byte {
	return append(p.AppendWireHead(b), p.Payload...)
}
func (p multicastReq) PayloadBlob() ([]byte, *transport.Blob) {
	return p.Payload, p.blob
}

// ReleasePayload drops the decoded request's blob reference; called by the
// transport after the handler returns (handlers only borrow the payload).
func (p multicastReq) ReleasePayload() { p.blob.Release() }

func readMulticastReqHead(r *transport.WireReader) multicastReq {
	return multicastReq{
		MsgID:  r.String(),
		Source: readNodeInfo(r),
		K:      ring.ID(r.Uvarint()),
		Hops:   int(r.Varint()),
		Repair: r.Bool(),
	}
}
func decodeMulticastReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := readMulticastReqHead(r)
	p.Payload = r.Bytes()
	return p, r.Finish()
}

// decodeMulticastReqBlob is the zero-copy serving-side decoder: the payload
// views the pooled frame buffer and the request holds a reference on it.
func decodeMulticastReqBlob(b []byte, owner *transport.Blob) (any, error) {
	r := transport.NewWireReader(b)
	p := readMulticastReqHead(r)
	p.Payload = r.BytesView()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if p.Payload != nil {
		p.blob = owner.Retain()
	}
	return p, nil
}

func (multicastResp) WireTag() byte { return tagMulticastResp }
func (p multicastResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Duplicate)
}
func decodeMulticastResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := multicastResp{Duplicate: r.Bool()}
	return p, r.Finish()
}

func (offerReq) WireTag() byte { return tagOfferReq }
func (p offerReq) AppendWire(b []byte) []byte {
	return transport.AppendString(b, p.MsgID)
}
func decodeOfferReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := offerReq{MsgID: r.String()}
	return p, r.Finish()
}

func (offerResp) WireTag() byte { return tagOfferResp }
func (p offerResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Want)
}
func decodeOfferResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := offerResp{Want: r.Bool()}
	return p, r.Finish()
}

func (floodReq) WireTag() byte { return tagFloodReq }
func (p floodReq) AppendWireHead(b []byte) []byte {
	b = transport.AppendString(b, p.MsgID)
	b = appendNodeInfo(b, p.Source)
	b = transport.AppendVarint(b, int64(p.Hops))
	return transport.AppendBytesHead(b, p.Payload)
}
func (p floodReq) AppendWire(b []byte) []byte {
	return append(p.AppendWireHead(b), p.Payload...)
}
func (p floodReq) PayloadBlob() ([]byte, *transport.Blob) {
	return p.Payload, p.blob
}

// ReleasePayload drops the decoded request's blob reference; called by the
// transport after the handler returns.
func (p floodReq) ReleasePayload() { p.blob.Release() }

func readFloodReqHead(r *transport.WireReader) floodReq {
	return floodReq{
		MsgID:  r.String(),
		Source: readNodeInfo(r),
		Hops:   int(r.Varint()),
	}
}
func decodeFloodReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := readFloodReqHead(r)
	p.Payload = r.Bytes()
	return p, r.Finish()
}

// decodeFloodReqBlob is the zero-copy serving-side decoder for floods.
func decodeFloodReqBlob(b []byte, owner *transport.Blob) (any, error) {
	r := transport.NewWireReader(b)
	p := readFloodReqHead(r)
	p.Payload = r.BytesView()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if p.Payload != nil {
		p.blob = owner.Retain()
	}
	return p, nil
}

func (floodResp) WireTag() byte { return tagFloodResp }
func (p floodResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Duplicate)
}
func decodeFloodResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := floodResp{Duplicate: r.Bool()}
	return p, r.Finish()
}

func (leavingReq) WireTag() byte { return tagLeavingReq }
func (p leavingReq) AppendWire(b []byte) []byte {
	b = appendNodeInfo(b, p.Departing)
	b = appendNodeInfoPtr(b, p.NewPred)
	return appendNodeInfoPtr(b, p.NewSucc)
}
func decodeLeavingReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := leavingReq{
		Departing: readNodeInfo(r),
		NewPred:   readNodeInfoPtr(r),
		NewSucc:   readNodeInfoPtr(r),
	}
	return p, r.Finish()
}

func (leavingResp) WireTag() byte { return tagLeavingResp }
func (p leavingResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(b, p.Acked)
}
func decodeLeavingResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := leavingResp{Acked: r.Bool()}
	return p, r.Finish()
}

func (appReq) WireTag() byte { return tagAppReq }
func (p appReq) AppendWire(b []byte) []byte {
	return transport.AppendBytes(b, p.Payload)
}
func decodeAppReq(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := appReq{Payload: r.Bytes()}
	return p, r.Finish()
}

func (appResp) WireTag() byte { return tagAppResp }
func (p appResp) AppendWire(b []byte) []byte {
	return transport.AppendBytes(b, p.Payload)
}
func decodeAppResp(b []byte) (any, error) {
	r := transport.NewWireReader(b)
	p := appResp{Payload: r.Bytes()}
	return p, r.Finish()
}

var wireOnce sync.Once

// statusLookupFailed is the wire status code (v4 response frames) that
// classifies ErrLookupFailed across the TCP transport, so isLookupFailed
// can errors.Is-match remote exhaustion.
const statusLookupFailed = 1

// RegisterWireTypes registers every runtime RPC payload type's decoder,
// and the ErrLookupFailed status code, with the transport layer so that
// nodes can run over the TCP transport (internal/transport.TCP). Safe to
// call multiple times; the in-memory transport does not need it.
func RegisterWireTypes() {
	wireOnce.Do(registerWireTypes)
}

func registerWireTypes() {
	transport.RegisterStatusError(statusLookupFailed, ErrLookupFailed)
	transport.RegisterWireDecoder(tagPingReq, decodePingReq)
	transport.RegisterWireDecoder(tagPingResp, decodePingResp)
	transport.RegisterWireDecoder(tagFindSuccReq, decodeFindSuccReq)
	transport.RegisterWireDecoder(tagFindSuccResp, decodeFindSuccResp)
	transport.RegisterWireDecoder(tagNeighborsReq, decodeNeighborsReq)
	transport.RegisterWireDecoder(tagNeighborsResp, decodeNeighborsResp)
	transport.RegisterWireDecoder(tagNotifyReq, decodeNotifyReq)
	transport.RegisterWireDecoder(tagNotifyResp, decodeNotifyResp)
	transport.RegisterWireDecoder(tagMulticastReq, decodeMulticastReq)
	transport.RegisterWireDecoder(tagMulticastResp, decodeMulticastResp)
	transport.RegisterWireDecoder(tagOfferReq, decodeOfferReq)
	transport.RegisterWireDecoder(tagOfferResp, decodeOfferResp)
	transport.RegisterWireDecoder(tagFloodReq, decodeFloodReq)
	transport.RegisterWireDecoder(tagFloodResp, decodeFloodResp)
	transport.RegisterWireDecoder(tagLeavingReq, decodeLeavingReq)
	transport.RegisterWireDecoder(tagLeavingResp, decodeLeavingResp)
	transport.RegisterWireDecoder(tagAppReq, decodeAppReq)
	transport.RegisterWireDecoder(tagAppResp, decodeAppResp)

	// The bulk payload carriers also get zero-copy serving-side decoders;
	// every other type keeps the copying decoder (their payloads are tiny
	// control fields).
	transport.RegisterBlobDecoder(tagMulticastReq, decodeMulticastReqBlob)
	transport.RegisterBlobDecoder(tagFloodReq, decodeFloodReqBlob)
}

// Compile-time checks: the bulk carriers implement the zero-copy contracts.
var (
	_ transport.BlobMarshaler   = multicastReq{}
	_ transport.BlobMarshaler   = floodReq{}
	_ transport.PayloadReleaser = multicastReq{}
	_ transport.PayloadReleaser = floodReq{}
)
