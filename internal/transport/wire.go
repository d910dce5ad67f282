package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// This file is the byte-level vocabulary of the binary wire codec: append
// helpers for encoding and a cursor-style WireReader for decoding. Payload
// types implement WireMarshaler with these helpers and register a matching
// decoder with RegisterWireDecoder; the transport handles everything else
// (framing, call IDs, payload type tags).
//
// All integer fields are varints (unsigned, or zigzag for signed), strings
// and byte slices are length-prefixed, and nil-ness of byte slices is
// preserved (a nil slice and an empty slice round-trip distinctly), so a
// round trip returns a value identical to the one sent.

// WireMarshaler is implemented by payload types that know how to encode
// themselves for the wire. AppendWire appends the encoded value to
// b and returns the extended slice; it must not retain b.
type WireMarshaler interface {
	// WireTag returns the payload's registered one-byte type tag
	// (>= WireTagUserMin).
	WireTag() byte
	// AppendWire appends the value's binary encoding to b.
	AppendWire(b []byte) []byte
}

// Payload type tags. Tags below WireTagUserMin are reserved for the
// transport itself.
const (
	// wireTagNil marks a nil payload. Tag 1 stays unassigned: builds that
	// still had a gob fallback sent it under tag 1, and such a payload
	// must fail to decode rather than be misread as a registered type.
	wireTagNil byte = 0

	// WireTagUserMin is the first tag available to registered payload
	// types.
	WireTagUserMin byte = 0x10
)

// wireDecoders maps payload type tags to decoders. Registration happens
// during init/setup (before any connection exists), so reads are not
// synchronized.
var wireDecoders [256]func([]byte) (any, error)

// RegisterWireDecoder installs the decoder for a payload type tag. The
// decoder receives exactly the payload bytes AppendWire produced and must
// return the decoded value (a concrete value, not a pointer, so handlers
// type-assert the type the caller sent). Register all
// types before the first connection is made; duplicate or reserved tags
// panic.
func RegisterWireDecoder(tag byte, dec func([]byte) (any, error)) {
	if tag < WireTagUserMin {
		panic(fmt.Sprintf("transport: wire tag %#x is reserved", tag))
	}
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("transport: wire tag %#x registered twice", tag))
	}
	wireDecoders[tag] = dec
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v as a zigzag-encoded signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends s as a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a length-prefixed byte slice, preserving
// nil-ness: the prefix is 0 for nil and len+1 otherwise.
func AppendBytes(b []byte, p []byte) []byte {
	if p == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(p))+1)
	return append(b, p...)
}

// AppendBytesHead appends only the length framing AppendBytes would write
// for p — the prefix a BlobMarshaler's AppendWireHead emits before the
// payload bytes go out by reference from their blob.
func AppendBytesHead(b []byte, p []byte) []byte {
	if p == nil {
		return binary.AppendUvarint(b, 0)
	}
	return binary.AppendUvarint(b, uint64(len(p))+1)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ErrWireDecode reports malformed binary payload bytes.
var ErrWireDecode = errors.New("transport: malformed wire payload")

// WireReader is a decoding cursor over one payload's bytes. Read methods
// return zero values after the first error; check Finish at the end. A
// WireReader never panics on malformed input — truncated or oversized
// fields surface as ErrWireDecode — which makes decoders safe to fuzz
// directly.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader returns a reader over b. The reader does not copy b, but
// Bytes() copies out of it, so decoded values never alias the frame buffer.
func NewWireReader(b []byte) *WireReader {
	return &WireReader{buf: b}
}

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = ErrWireDecode
	}
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// String reads a length-prefixed string.
func (r *WireReader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// stringView reads a length-prefixed string without copying: the result
// aliases the reader's buffer. Only for callers that own the buffer and
// never mutate it afterwards (the server's request parser).
func (r *WireReader) stringView() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return ""
	}
	s := unsafe.String(unsafe.SliceData(r.buf[r.off:]), int(n))
	r.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice written by AppendBytes. The
// returned slice is a copy (or nil, if nil was encoded).
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	p := make([]byte, n)
	copy(p, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return p
}

// BytesView reads a length-prefixed byte slice written by AppendBytes
// without copying: the result aliases the reader's buffer. Only for
// blob-aware decoders, which pair the view with a Retain on the buffer's
// owning Blob so the bytes outlive the read.
func (r *WireReader) BytesView() []byte {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	p := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return p
}

// Bool reads one byte as a boolean.
func (r *WireReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail()
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

// Err returns the first decoding error, if any.
func (r *WireReader) Err() error { return r.err }

// Finish returns an error if decoding failed or left trailing bytes — a
// strict check that catches both truncated and over-long encodings.
func (r *WireReader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWireDecode, len(r.buf)-r.off)
	}
	return nil
}
