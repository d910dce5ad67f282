package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzParseFrame fuzzes the server-side frame parsing path with arbitrary
// frame bodies exactly as the decode loop sees them — body in a pooled
// blob, payload decoded through the blob-aware dispatcher — so garbage must
// be rejected with an error, never panic, over-read, or leak a blob
// reference.
func FuzzParseFrame(f *testing.F) {
	benchRegisterOnce.Do(func() { registerBenchPayload() })
	registerBlobTestPayload()
	// Seed with well-formed request and response frame bodies, covering the
	// plain binary payload, the blob-backed payload and an error response,
	// plus a response carrying the retired payload tag 1 (once a gob
	// fallback), which must be rejected.
	req, err := appendRequestBody(nil, 7, 0, "from", "to", "kind", benchPayload{Key: "k", Value: []byte{1, 2}, Seq: 3})
	if err != nil {
		f.Fatal(err)
	}
	breq, err := appendRequestBody(nil, 9, 5, "from", "to", "kind", blobTestPayload{Key: "k", Data: []byte{4, 5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	resp := appendFrameHeader(nil, frameResponse, 7, 0)
	resp = AppendString(resp, "")
	resp = append(resp, 1, 0x0e, 0xff, 0x81, 0x03, 0x01, 0x01)
	if _, _, _, rest, err := frameHeader(resp); err != nil {
		f.Fatal(err)
	} else if _, _, _, err := parseResponse(rest); !errors.Is(err, ErrWireDecode) {
		f.Fatalf("tag-1 payload: err = %v, want ErrWireDecode", err)
	}
	eresp, err := appendResponseBody(nil, 8, 0, "lookup failed", 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(req)
	f.Add(breq)
	f.Add(resp)
	f.Add(eresp)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) < frameHeaderSize {
			return
		}
		blob := BlobFrom(body)
		bb := blob.Bytes()
		frameType, callID, gid, rest, err := frameHeader(bb)
		if err != nil {
			blob.Release()
			return
		}
		switch frameType {
		case frameRequest:
			var pr parsedRequest
			if err := parseRequest(&pr, callID, gid, rest, blob); err != nil {
				return // parseRequest released the blob
			}
			if decoded, err := decodePayloadOwned(pr.payload, pr.body, nil); err == nil {
				if rel, ok := decoded.(PayloadReleaser); ok {
					rel.ReleasePayload()
				}
			}
			pr.body.Release()
		case frameResponse:
			_, _, _, _ = parseResponse(rest)
			blob.Release()
		default:
			blob.Release()
		}
	})
}

// FuzzReadFrame checks the stream frame reader against a reference decode
// of the same bytes: readFrame must yield exactly the frames a plain walk
// over the length prefixes finds, and fail exactly where that walk finds a
// short or out-of-range frame. It runs once on the connections' read buffer
// and once on bufio's 16-byte minimum, so bodies both smaller and larger
// than the buffered bytes take the direct-to-blob read path.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(frameHeaderSize+3))
	stream = append(stream, lenb[:]...)
	stream = append(stream, frameRequest)
	stream = append(stream, make([]byte, 8+3)...)
	f.Add(stream)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	big := make([]byte, 4+readBufSize+1)
	binary.BigEndian.PutUint32(big, readBufSize+1)
	f.Add(append(append([]byte(nil), stream...), big...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference: frames are whatever a walk over well-formed
		// length prefixes covers; anything else ends the stream in error
		// (or cleanly, at a frame boundary).
		var want [][]byte
		rest := data
		for len(rest) >= 4 {
			n := binary.BigEndian.Uint32(rest)
			if n < frameHeaderSize || n > maxFrameSize || uint64(len(rest)-4) < uint64(n) {
				break
			}
			want = append(want, rest[4:4+n])
			rest = rest[4+n:]
		}
		for _, size := range []int{readBufSize, 16} {
			br := bufio.NewReaderSize(bytes.NewReader(data), size)
			for i := 0; ; i++ {
				blob, err := readFrame(br)
				if i == len(want) {
					if err == nil {
						blob.Release()
						t.Fatalf("buffer %d: frame %d read past the reference's %d frames", size, i, len(want))
					}
					if len(rest) == 0 && err != io.EOF {
						t.Fatalf("buffer %d: clean stream end read as %v", size, err)
					}
					if len(rest) > 0 && err == io.EOF {
						t.Fatalf("buffer %d: stream cut inside a frame read as a clean end", size)
					}
					break
				}
				if err != nil {
					t.Fatalf("buffer %d: frame %d: %v", size, i, err)
				}
				if !bytes.Equal(blob.Bytes(), want[i]) {
					t.Fatalf("buffer %d: frame %d body differs from the reference", size, i)
				}
				blob.Release()
			}
		}
	})
}

// TestReadFrameTruncation: a stream closed at a frame boundary ends with
// io.EOF, and one cut anywhere inside a frame (inside the length prefix,
// right after it, or inside the body) with io.ErrUnexpectedEOF, so a
// reader never mistakes a truncated frame for a clean close.
func TestReadFrameTruncation(t *testing.T) {
	frame := make([]byte, 4+frameHeaderSize+3)
	binary.BigEndian.PutUint32(frame, frameHeaderSize+3)
	for _, tc := range []struct {
		name string
		cut  int // bytes of the second frame on the stream
		want error
	}{
		{"boundary", 0, io.EOF},
		{"inside prefix", 2, io.ErrUnexpectedEOF},
		{"after prefix", 4, io.ErrUnexpectedEOF},
		{"inside body", 7, io.ErrUnexpectedEOF},
	} {
		stream := append(append([]byte(nil), frame...), frame[:tc.cut]...)
		br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
		blob, err := readFrame(br)
		if err != nil {
			t.Fatalf("%s: first frame: %v", tc.name, err)
		}
		blob.Release()
		if _, err := readFrame(br); err != tc.want {
			t.Errorf("%s: second read = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// captureConn is a net.Conn that records everything written to it, so
// tests can inspect the exact bytes the frameWriter put on the wire.
type captureConn struct {
	bytes.Buffer
}

func (*captureConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (*captureConn) Close() error                     { return nil }
func (*captureConn) LocalAddr() net.Addr              { return nil }
func (*captureConn) RemoteAddr() net.Addr             { return nil }
func (*captureConn) SetDeadline(time.Time) error      { return nil }
func (*captureConn) SetReadDeadline(time.Time) error  { return nil }
func (*captureConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzScatterGatherFrame round-trips fuzzed requests through the
// scatter-gather frame writer and the blob reader: the gathered wire bytes
// must match the linear single-buffer encoding exactly, parse back to the
// original payload, and leave every blob reference balanced. Seeds include
// zero-length and writeThreshold-crossing payloads; the maxFrameSize
// boundary (too slow to fuzz) is covered by TestFrameWriterMaxFrame.
func FuzzScatterGatherFrame(f *testing.F) {
	benchRegisterOnce.Do(func() { registerBenchPayload() })
	registerBlobTestPayload()
	f.Add("k", []byte(nil), true)
	f.Add("", []byte{}, true)
	f.Add("key", []byte("hello"), false)
	f.Add("big", bytes.Repeat([]byte{0xAB}, writeThreshold+17), true)
	f.Fuzz(func(t *testing.T, key string, data []byte, viaBlob bool) {
		p := blobTestPayload{Key: key, Data: data}
		if viaBlob && len(data) > 0 {
			p.blob = BlobFrom(data)
			p.Data = p.blob.Bytes()
		}

		conn := &captureConn{}
		w := newFrameWriter(conn, func() time.Duration { return 0 }, 0, &instruments{})
		werr := w.writeRequest(42, 3, "from", "to", "kind", p, true)
		w.close()
		if p.blob != nil {
			p.blob.Release()
		}
		if werr != nil {
			t.Fatalf("writeRequest: %v", werr)
		}

		// The gathered encoding must be byte-identical to the linear one.
		linear, err := appendRequestBody(nil, 42, 3, "from", "to", "kind", p)
		if err != nil {
			t.Fatalf("appendRequestBody: %v", err)
		}
		wire := conn.Bytes()
		if len(wire) < 4 || int(binary.BigEndian.Uint32(wire)) != len(linear) {
			t.Fatalf("frame length prefix = %v, want %d", wire[:4], len(linear))
		}
		if !bytes.Equal(wire[4:], linear) {
			t.Fatalf("scatter-gather bytes differ from linear encoding")
		}

		// And it must read back as the payload that went in.
		blob, err := readFrame(bufio.NewReaderSize(bytes.NewReader(wire), readBufSize))
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		frameType, callID, gid, rest, err := frameHeader(blob.Bytes())
		if err != nil {
			t.Fatalf("frameHeader: %v", err)
		}
		if frameType != frameRequest || callID != 42 || gid != 3 {
			t.Fatalf("frame header = (%d, %d, %d), want (request, 42, 3)", frameType, callID, gid)
		}
		var pr parsedRequest
		if err := parseRequest(&pr, callID, gid, rest, blob); err != nil {
			t.Fatalf("parseRequest: %v", err)
		}
		decoded, err := decodePayloadOwned(pr.payload, pr.body, nil)
		if err != nil {
			t.Fatalf("decodePayloadOwned: %v", err)
		}
		got, ok := decoded.(blobTestPayload)
		if !ok {
			t.Fatalf("decoded %T, want blobTestPayload", decoded)
		}
		if got.Key != key || !bytes.Equal(got.Data, data) {
			t.Fatalf("round-trip mismatch: got (%q, %d bytes), want (%q, %d bytes)", got.Key, len(got.Data), key, len(data))
		}
		if got.blob != nil {
			got.ReleasePayload()
		}
		pr.body.Release()
	})
}
