package transport

import (
	"fmt"

	"camcast/internal/obsv"
)

// BlobMarshaler is implemented by payload types that carry their payload
// bytes in a shared refcounted Blob, letting the frame writer scatter-gather
// the frame: the head (everything up to and including the payload-bytes
// length framing) is encoded per frame, while the payload bytes themselves
// are written straight from the blob, shared across every frame of the
// fan-out. The invariant both methods must satisfy is
//
//	AppendWire(b) == append(AppendWireHead(b), view...)
//
// where view is the slice PayloadBlob returned. A BlobMarshaler without an
// attached blob (PayloadBlob returns a nil owner) falls back to the plain
// AppendWire path — correct, but re-encoding the payload per frame, which
// the transport.payload_encodes counter exposes.
type BlobMarshaler interface {
	WireMarshaler
	// PayloadBlob returns the payload view and the blob that owns it, or a
	// nil owner when the value carries no pre-encoded payload. The view must
	// stay valid for as long as the caller holds a reference on the owner.
	PayloadBlob() (view []byte, owner *Blob)
	// AppendWireHead appends the encoding of everything except the payload
	// bytes — including the payload's length framing — to b.
	AppendWireHead(b []byte) []byte
}

// PayloadReleaser is implemented by decoded payload types that hold a blob
// reference (installed by a RegisterBlobDecoder decoder). The serving side
// calls ReleasePayload after the handler returns; handlers themselves only
// borrow the payload and must not release it.
type PayloadReleaser interface {
	ReleasePayload()
}

// blobDecoders maps payload type tags to blob-aware decoders, which alias
// the payload bytes out of the request's pooled frame buffer instead of
// copying them. Registration is init-time only, like wireDecoders.
var blobDecoders [256]func(b []byte, owner *Blob) (any, error)

// RegisterBlobDecoder installs a blob-aware decoder for a payload type tag
// already registered with RegisterWireDecoder. The decoder receives the
// payload bytes and the Blob that owns them; if the decoded value keeps a
// view of the bytes it must Retain the owner and implement PayloadReleaser.
// The serving side prefers this decoder; everything else (the plain client
// response path, fuzzers) keeps using the copying decoder.
func RegisterBlobDecoder(tag byte, dec func(b []byte, owner *Blob) (any, error)) {
	if tag < WireTagUserMin {
		panic(fmt.Sprintf("transport: wire tag %#x is reserved", tag))
	}
	if wireDecoders[tag] == nil {
		panic(fmt.Sprintf("transport: blob decoder for unregistered tag %#x", tag))
	}
	if blobDecoders[tag] != nil {
		panic(fmt.Sprintf("transport: blob decoder for tag %#x registered twice", tag))
	}
	blobDecoders[tag] = dec
}

// appendPayload appends the tag+body encoding of payload. A payload type
// with no binary encoding (no WireMarshaler) is an error, which the frame
// writer reports as a non-poisoning encodeError.
func appendPayload(b []byte, payload any) ([]byte, error) {
	if payload == nil {
		return append(b, wireTagNil), nil
	}
	m, ok := payload.(WireMarshaler)
	if !ok {
		return nil, fmt.Errorf("transport: payload type %T has no binary wire encoding", payload)
	}
	b = append(b, m.WireTag())
	return m.AppendWire(b), nil
}

// decodePayloadOwned decodes one tag+body payload encoding whose bytes live
// in owner (the request's pooled frame buffer). Tags with a registered blob
// decoder alias the payload out of owner — zero copies, one Retain — and
// count one payload materialization; everything else falls back to the
// copying decodePayload. The counter may be nil.
func decodePayloadOwned(b []byte, owner *Blob, encodes *obsv.Counter) (any, error) {
	if owner != nil && len(b) > 0 {
		if dec := blobDecoders[b[0]]; dec != nil {
			encodes.Inc()
			return dec(b[1:], owner)
		}
	}
	return decodePayload(b)
}

// decodePayload decodes one tag+body payload encoding. The input may alias
// a reused frame buffer; decoders copy anything they keep.
func decodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrWireDecode)
	}
	tag, body := b[0], b[1:]
	if tag == wireTagNil {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %d bytes after nil tag", ErrWireDecode, len(body))
		}
		return nil, nil
	}
	dec := wireDecoders[tag]
	if dec == nil {
		return nil, fmt.Errorf("%w: unregistered payload tag %#x", ErrWireDecode, tag)
	}
	return dec(body)
}
