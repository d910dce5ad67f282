package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestBlobClass(t *testing.T) {
	cases := []struct {
		n    int
		want int8
	}{
		{0, blobMinClass},
		{1, blobMinClass},
		{1 << blobMinClass, blobMinClass},
		{1<<blobMinClass + 1, blobMinClass + 1},
		{4096, 12},
		{4097, 13},
		{1 << blobMaxClass, blobMaxClass},
		{1<<blobMaxClass + 1, blobUnpooled},
	}
	for _, c := range cases {
		if got := blobClass(c.n); got != c.want {
			t.Errorf("blobClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBlobRefcountLifecycle(t *testing.T) {
	gets0, puts0 := BlobPoolStats()

	b := BlobFrom([]byte("payload"))
	if got := b.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Bytes() = %q, want %q", got, "payload")
	}
	if b.Len() != 7 {
		t.Fatalf("Len() = %d, want 7", b.Len())
	}
	b.Retain()
	b.Retain()
	b.Release()
	b.Release()
	b.Release() // final: back to the pool

	gets1, puts1 := BlobPoolStats()
	if dg, dp := gets1-gets0, puts1-puts0; dg != dp {
		t.Fatalf("pool stats after quiesce: %d gets vs %d puts", dg, dp)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero did not panic")
		}
	}()
	b.Release()
}

func TestBlobRetainAfterFinalReleasePanics(t *testing.T) {
	b := NewBlob(8)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final release did not panic")
		}
	}()
	b.Retain()
}

func TestBlobNilSafety(t *testing.T) {
	var b *Blob
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("nil blob is not empty")
	}
	if b.Retain() != nil {
		t.Fatal("nil Retain() != nil")
	}
	b.Release() // must not panic
}

func TestBlobClassCapacity(t *testing.T) {
	b := NewBlob(800)
	defer b.Release()
	if cap(b.Bytes()) != 1<<blobMinClass {
		t.Fatalf("NewBlob(800) capacity = %d, want %d", cap(b.Bytes()), 1<<blobMinClass)
	}
	if b.Len() != 800 {
		t.Fatalf("NewBlob(800) length = %d, want 800", b.Len())
	}
}

func TestBlobPoisonOnRelease(t *testing.T) {
	prev := PoisonBlobsOnRelease(true)
	defer PoisonBlobsOnRelease(prev)

	b := BlobFrom([]byte("keep me"))
	view := b.Bytes()
	b.Release()
	for i, c := range view {
		if c != 0xDB {
			t.Fatalf("byte %d after release = %#x, want the 0xDB poison", i, c)
		}
	}
}

// TestFrameWriterMaxFrame drives the scatter-gather writer into the
// maxFrameSize limit: the oversized frame must be rejected with an encode
// error, every blob reference it took must be rolled back, and the writer
// must stay usable for the next frame.
func TestFrameWriterMaxFrame(t *testing.T) {
	registerBlobTestPayload()
	blob := NewBlob(maxFrameSize) // header pushes the body over the limit
	p := blobTestPayload{Key: "k", Data: blob.Bytes(), blob: blob}

	conn := &captureConn{}
	w := newFrameWriter(conn, func() time.Duration { return 0 }, 0, &instruments{})
	defer w.close()

	err := w.writeRequest(1, 0, "from", "to", "kind", p, true)
	var encErr *encodeError
	if !errors.As(err, &encErr) {
		t.Fatalf("oversized frame: err = %v, want encodeError", err)
	}
	blob.Release() // panics if the rollback leaked or double-released a ref
	if conn.Len() != 0 {
		t.Fatalf("%d bytes reached the socket from a rejected frame", conn.Len())
	}

	// The writer is still clean: a small frame goes through.
	if err := w.writeRequest(2, 0, "from", "to", "kind", blobTestPayload{Key: "ok"}, true); err != nil {
		t.Fatalf("write after rejected frame: %v", err)
	}
	if conn.Len() == 0 {
		t.Fatal("follow-up frame never hit the socket")
	}
}
