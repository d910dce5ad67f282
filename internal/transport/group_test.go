package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"camcast/internal/obsv"
)

func TestGroupLabel(t *testing.T) {
	if got := GroupLabel("tenant-a"); got == 0 {
		t.Error("GroupLabel returned the reserved default label 0")
	}
	if GroupLabel("tenant-a") != GroupLabel("tenant-a") {
		t.Error("GroupLabel is not deterministic")
	}
	if GroupLabel("tenant-a") == GroupLabel("tenant-b") {
		t.Error("distinct names mapped to one label")
	}
}

// TestFlowIsolation pins the in-process transport's group semantics: a
// Flow only reaches endpoints registered in its own group, even at an
// address that exists in another group.
func TestFlowIsolation(t *testing.T) {
	n := NewNetwork(1)
	fa, fb := n.Flow(GroupLabel("a")), n.Flow(GroupLabel("b"))
	if fa.GroupID() == fb.GroupID() {
		t.Fatal("flows share a group id")
	}
	fa.Register("x", func(from, kind string, payload any) (any, error) {
		return "from-a", nil
	})
	got, err := fa.Call(context.Background(), "c", "x", "probe", nil)
	if err != nil || got != "from-a" {
		t.Errorf("same-group call = %v, %v; want from-a", got, err)
	}
	if _, err := fb.Call(context.Background(), "c", "x", "probe", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cross-group call err = %v, want ErrUnreachable", err)
	}
	fa.Unregister("x")
	if _, err := fa.Call(context.Background(), "c", "x", "probe", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call after unregister err = %v, want ErrUnreachable", err)
	}
}

// TestTCPThousandGroupsOneConnection is the tentpole scale assertion at
// the transport layer: 1000 groups call across the same peer pair and the
// whole exchange multiplexes over a single pipelined TCP connection —
// each side holds exactly one (A its dialed conn, B its accepted one).
func TestTCPThousandGroupsOneConnection(t *testing.T) {
	a, b := newTCPPair(t)
	const groups = 1000
	for gid := uint64(1); gid <= groups; gid++ {
		gid := gid
		b.RegisterGroup(gid, b.Addr(), func(from, kind string, payload any) (any, error) {
			return echoPayload{Value: int(gid)}, nil
		})
	}
	ctx := context.Background()
	for gid := uint64(1); gid <= groups; gid++ {
		resp, err := a.CallGroup(ctx, gid, "client", b.Addr(), "probe", echoPayload{Value: 0})
		if err != nil {
			t.Fatalf("group %d: %v", gid, err)
		}
		if got := resp.(echoPayload).Value; got != int(gid) {
			t.Fatalf("group %d answered as group %d — frames crossed flows", gid, got)
		}
	}
	if got := a.ConnCount(); got != 1 {
		t.Errorf("caller holds %d connections for %d groups, want 1", got, groups)
	}
	if got := b.ConnCount(); got != 1 {
		t.Errorf("callee holds %d connections for %d groups, want 1", got, groups)
	}

	// A group nobody registered is unreachable, with the group named in
	// the error rather than silently falling back to another group's
	// endpoint at the same address.
	if _, err := a.CallGroup(ctx, groups+1, "client", b.Addr(), "probe", echoPayload{}); err == nil {
		t.Error("call into an unregistered group succeeded")
	} else if !strings.Contains(err.Error(), "group") {
		t.Errorf("unregistered-group error %q does not mention the group", err)
	}
}

// gateConn blocks every Write until released, then records bytes. It lets
// the tests park the frame writer's single in-flight batch on the
// "socket" while more frames pile into the next batch.
type gateConn struct {
	gate    chan struct{}
	mu      sync.Mutex
	buf     []byte
	blocked chan struct{}
	once    sync.Once
}

func newGateConn() *gateConn {
	return &gateConn{gate: make(chan struct{}), blocked: make(chan struct{})}
}

func (c *gateConn) release() { close(c.gate) }

func (c *gateConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.blocked) })
	<-c.gate
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (*gateConn) Read([]byte) (int, error)         { return 0, nil }
func (*gateConn) Close() error                     { return nil }
func (*gateConn) LocalAddr() net.Addr              { return nil }
func (*gateConn) RemoteAddr() net.Addr             { return nil }
func (*gateConn) SetDeadline(time.Time) error      { return nil }
func (*gateConn) SetReadDeadline(time.Time) error  { return nil }
func (*gateConn) SetWriteDeadline(time.Time) error { return nil }

// drainGids parses a concatenation of wire frames and returns the group
// label of each in order.
func drainGids(t *testing.T, stream []byte) []uint64 {
	t.Helper()
	var gids []uint64
	for len(stream) > 0 {
		if len(stream) < 4 {
			t.Fatalf("trailing garbage: %d bytes", len(stream))
		}
		size := binary.BigEndian.Uint32(stream[:4])
		body := stream[4 : 4+size]
		_, _, gid, _, err := frameHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
		stream = stream[4+size:]
	}
	return gids
}

func waitFrames(t *testing.T, conn *gateConn, want int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gids := drainGids(t, conn.bytes())
		if len(gids) >= want {
			return gids
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the conn", len(gids), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameWriterWRRInterleaving proves mixed batches are assembled per
// group, not in raw arrival order: frames written interleaved A,B,A,C,A
// leave the writer grouped by flow in first-appearance order — the
// weighted round robin with every group under its quantum.
func TestFrameWriterWRRInterleaving(t *testing.T) {
	registerBlobTestPayload()
	conn := newGateConn()
	w := newFrameWriter(conn, func() time.Duration { return 0 }, 0, &instruments{})
	defer w.close()

	gidA, gidB, gidC := uint64(11), uint64(22), uint64(33)
	small := blobTestPayload{Key: "k", Data: []byte("x")}

	// Park the first frame inside conn.Write so everything that follows
	// lands in one pending batch.
	go func() {
		_ = w.writeRequest(1, 7, "f", "t", "k", small, true)
	}()
	<-conn.blocked

	for i, gid := range []uint64{gidA, gidB, gidA, gidC, gidA} {
		if err := w.writeRequest(uint64(2+i), gid, "f", "t", "k", small, false); err != nil {
			t.Fatal(err)
		}
	}
	conn.release()

	gids := waitFrames(t, conn, 6)
	want := []uint64{7, gidA, gidA, gidA, gidB, gidC}
	if fmt.Sprint(gids) != fmt.Sprint(want) {
		t.Errorf("wire order %v, want WRR order %v", gids, want)
	}
}

// TestFrameWriterGroupBacklogQuota drives one group over its per-connection
// backlog quota while the socket is stalled: the over-quota group's sends
// fail with ErrGroupBacklog (counted in its backlog_drops metric), other
// groups keep buffering, and once the backlog drains the throttled group
// is admitted again.
func TestFrameWriterGroupBacklogQuota(t *testing.T) {
	registerBlobTestPayload()
	reg := obsv.NewRegistry()
	inst := newInstruments(reg)
	inst.groups.setLabel(42, "hot")

	conn := newGateConn()
	const limit = 16 << 10
	w := newFrameWriter(conn, func() time.Duration { return 0 }, limit, &inst)
	defer w.close()

	fat := blobTestPayload{Key: "k", Data: make([]byte, 10<<10)}
	go func() {
		_ = w.writeRequest(1, 42, "f", "t", "k", fat, true)
	}()
	<-conn.blocked

	// Second hot frame fits under the 16KiB quota; the third does not.
	if err := w.writeRequest(2, 42, "f", "t", "k", fat, false); err != nil {
		t.Fatalf("second frame within quota rejected: %v", err)
	}
	err := w.writeRequest(3, 42, "f", "t", "k", fat, false)
	if !errors.Is(err, ErrGroupBacklog) {
		t.Fatalf("over-quota send error = %v, want ErrGroupBacklog", err)
	}
	var encErr *encodeError
	if !errors.As(err, &encErr) {
		t.Errorf("quota rejection is %T, want the non-poisoning encodeError", err)
	}

	// The quiet group is not collateral damage — its sends still buffer.
	if err := w.writeRequest(4, 77, "f", "t", "k", fat, false); err != nil {
		t.Fatalf("other group throttled by hot group's quota: %v", err)
	}
	// Responses are exempt: the hot group can always answer inbound work.
	if err := w.writeResponse(5, 42, "", 0, fat, false); err != nil {
		t.Fatalf("response blocked by request quota: %v", err)
	}

	if got := reg.Snapshot().Counters[obsv.ForGroup(obsv.MetricGroupBacklogDrops, "hot")]; got != 1 {
		t.Errorf("hot group backlog_drops = %d, want 1", got)
	}

	// Drain the socket; the hot group's quota frees up.
	conn.release()
	waitFrames(t, conn, 4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = w.writeRequest(6, 42, "f", "t", "k", fat, false); !errors.Is(err, ErrGroupBacklog) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot group still over quota after the backlog drained")
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("post-drain send failed: %v", err)
	}

	// Per-group accounting: the hot group's flushed bytes were credited.
	if got := reg.Snapshot().Counters[obsv.ForGroup(obsv.MetricGroupBytesSent, "hot")]; got == 0 {
		t.Error("hot group bytes_sent stayed 0 after flush")
	}
}
