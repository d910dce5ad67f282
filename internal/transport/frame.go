package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Wire format. A connection starts with a 4-byte preamble from the dialer —
// magic "CAM" plus a version byte — then carries a stream of
// length-prefixed frames in both directions:
//
//	[4B big-endian body length]
//	[1B frame type: 1=request, 2=response]
//	[8B big-endian call ID]
//	[uvarint group flow label]
//	request:  [str From][str To][str Kind][1B payload tag][payload bytes]
//	response: [str Err][uvarint status code, only when Err != ""]
//	          [1B payload tag][payload bytes]
//
// where [str] is a uvarint length prefix followed by the bytes. Call IDs
// are assigned by the requester and echoed in the response; responses may
// arrive in any order, which is what lets N calls share one socket with N
// RPCs in flight. Payload tag 0 is nil and tags >= WireTagUserMin name
// types registered with RegisterWireDecoder; every other tag, including
// tag 1 (see wireTagNil), fails to decode with ErrWireDecode.
//
// Version 2 reordered the runtime's bulk payload encodings (multicastReq,
// floodReq) to put the payload bytes last, which is what lets the frame
// writer scatter-gather them from a shared blob; v1 peers would misparse
// those payloads, so the preamble version rejects them outright.
//
// Version 3 added the group flow label after the call ID, in both
// directions: all groups hosted by two processes share one connection per
// peer pair, and the label routes each inbound frame to the right group's
// endpoint table. Label 0 is the default group, so single-group traffic
// pays one extra header byte. Responses echo the request's label, which is
// what lets the writer account and schedule them per tenant.
//
// Version 4 appends a uvarint status code after a non-empty response Err
// string, classifying handler errors (see RegisterStatusError) so callers
// can match sentinel errors with errors.Is instead of parsing message
// text. Code 0 is unclassified; success responses carry no code.

const (
	wireVersion byte = 4

	frameRequest  byte = 1
	frameResponse byte = 2

	// maxFrameSize caps one frame's body, bounding the allocation a
	// malformed or hostile length prefix can cause.
	maxFrameSize = 1 << 26 // 64 MiB

	// frameHeaderSize is the minimum header length: type byte, call ID,
	// and at least one group-label byte (the label is a uvarint).
	frameHeaderSize = 1 + 8 + 1
)

var preamble = [4]byte{'C', 'A', 'M', wireVersion}

// writePreamble sends the connection preamble (dialer side).
func writePreamble(w io.Writer) error {
	_, err := w.Write(preamble[:])
	return err
}

// readPreamble validates the connection preamble (acceptor side).
func readPreamble(r io.Reader) error {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("transport: read preamble: %w", err)
	}
	if got != preamble {
		return fmt.Errorf("transport: bad preamble %x (want %x)", got, preamble)
	}
	return nil
}

// readBufSize is each connection end's read buffer. It holds a whole frame
// of the common traffic with room to spare — a 1 KiB multicast payload plus
// its request head is about 1.13 KiB on the wire, so three fit — so a burst
// of small pipelined frames still costs one read syscall per buffer fill,
// while an idle connection (most of a member's c_x-scaled neighbour set)
// pins 4 KiB instead of a bulk-sized buffer. Frames larger than the bytes
// already buffered do not stage here: readFrame copies what is buffered and
// reads the rest straight into the frame's blob, at the cost of one extra
// read per frame above this size.
const readBufSize = 4 << 10

// readFrame reads one length-prefixed frame body directly into a pooled
// blob, so a bulk payload travels socket -> blob with no staging copy
// (bufio hands reads at least as large as its buffer straight to the
// socket). It is the one frame reader of both connection ends: requests
// are served out of the blob, responses are decoded from it and released.
// The caller owns the returned blob's single reference.
func readFrame(r *bufio.Reader) (*Blob, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < frameHeaderSize || n > maxFrameSize {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	b := NewBlob(int(n))
	if _, err := io.ReadFull(r, b.Bytes()); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// putFrameLen writes the 4-byte frame length prefix.
func putFrameLen(dst []byte, n int) {
	binary.BigEndian.PutUint32(dst, uint32(n))
}

// appendFrameHeader appends the frame type, call ID, and group flow label.
func appendFrameHeader(b []byte, frameType byte, callID, gid uint64) []byte {
	b = append(b, frameType)
	b = binary.BigEndian.AppendUint64(b, callID)
	return binary.AppendUvarint(b, gid)
}

// appendRequestBody appends a full request frame body.
func appendRequestBody(b []byte, callID, gid uint64, from, to, kind string, payload any) ([]byte, error) {
	b = appendFrameHeader(b, frameRequest, callID, gid)
	b = AppendString(b, from)
	b = AppendString(b, to)
	b = AppendString(b, kind)
	return appendPayload(b, payload)
}

// appendResponseBody appends a full response frame body.
func appendResponseBody(b []byte, callID, gid uint64, errMsg string, errCode uint64, payload any) ([]byte, error) {
	b = appendFrameHeader(b, frameResponse, callID, gid)
	b = AppendString(b, errMsg)
	if errMsg != "" {
		// Error responses carry a status code instead of a payload.
		b = binary.AppendUvarint(b, errCode)
		return append(b, wireTagNil), nil
	}
	return appendPayload(b, payload)
}

// frameHeader splits a frame body into its header fields and the rest.
// readFrame guarantees len(body) >= frameHeaderSize, but the group label is
// variable-width, so a truncated or malformed label is still possible.
func frameHeader(body []byte) (frameType byte, callID, gid uint64, rest []byte, err error) {
	gid, n := binary.Uvarint(body[9:])
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("transport: bad group label in frame header")
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), gid, body[9+n:], nil
}

// parsedRequest is a decoded request frame whose body lives in the pooled
// refcounted blob the frame was read into, so decoding can happen on a
// worker goroutine while the reader loop reads the next frame — and so a
// bulk payload can be re-shared outbound (relay fan-out) without ever
// being copied again. The caller owns one reference on body and releases
// it when the request is fully served; payload is a view into it. from and
// kind are copied out (handlers may retain them past the blob's release);
// to is a transient view only used for the endpoint lookup. Requests are
// pooled (see getRequest) so a connection's dispatch queue holds pointers,
// not a worker bound's worth of these structs.
type parsedRequest struct {
	callID  uint64
	gid     uint64
	from    string
	to      string
	kind    string
	payload []byte
	body    *Blob
}

var requestPool = sync.Pool{New: func() any { return new(parsedRequest) }}

// getRequest returns a zeroed request from the pool; putRequest clears req
// (dropping its views) and returns it.
func getRequest() *parsedRequest { return requestPool.Get().(*parsedRequest) }

func putRequest(req *parsedRequest) {
	*req = parsedRequest{}
	requestPool.Put(req)
}

// parseRequest decodes a request frame body (rest, the blob's bytes after
// the frame header) into req. Ownership of the caller's blob reference
// transfers: on success req holds it, on error parseRequest releases it and
// leaves req zeroed.
func parseRequest(req *parsedRequest, callID, gid uint64, rest []byte, blob *Blob) error {
	r := NewWireReader(rest)
	*req = parsedRequest{
		callID: callID,
		gid:    gid,
		from:   r.String(),
		to:     r.stringView(),
		kind:   r.String(),
		body:   blob,
	}
	err := r.err
	if err == nil && r.off >= len(rest) {
		err = fmt.Errorf("%w: request without payload", ErrWireDecode)
	}
	if err != nil {
		blob.Release()
		*req = parsedRequest{}
		return err
	}
	req.payload = rest[r.off:]
	return nil
}

// parseResponse decodes a response frame body (after the frame header),
// returning the handler error string, its status code, and the decoded
// payload.
func parseResponse(rest []byte) (payload any, errMsg string, errCode uint64, err error) {
	r := NewWireReader(rest)
	errMsg = r.String()
	if r.err != nil {
		return nil, "", 0, r.err
	}
	if errMsg != "" {
		errCode = r.Uvarint()
		if r.err != nil {
			return nil, "", 0, r.err
		}
		return nil, errMsg, errCode, nil
	}
	payload, err = decodePayload(rest[r.off:])
	return payload, "", 0, err
}
