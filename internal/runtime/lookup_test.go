package runtime

import (
	"context"
	"sync"
	"testing"
)

// recordingTransport records every find_successor request a node sends.
type recordingTransport struct {
	Transport

	mu   sync.Mutex
	sent []findSuccReq
}

func (r *recordingTransport) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	if req, ok := payload.(findSuccReq); ok {
		r.mu.Lock()
		r.sent = append(r.sent, req)
		r.mu.Unlock()
	}
	return r.Transport.Call(ctx, from, to, kind, payload)
}

// take returns the requests recorded since the last take.
func (r *recordingTransport) take() []findSuccReq {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return out
}

// TestCursorlessOnwardHopStaysGreedy pins digitRoute's cursorless branch:
// a request with no cursor and Hops > 0 is an onward hop of greedyRoute,
// which never sends a cursor, so a CAM-Koorde node must keep routing it
// greedily and forward it without one. A fresh entry-point request (Hops
// == 0) is the control: the same node starts a digit chain for it, so its
// onward requests carry a cursor the recorder can see.
func TestCursorlessOnwardHopStaysGreedy(t *testing.T) {
	c := newCluster(t, ModeCAMKoorde, 16)
	c.grow(16, 4)
	rec := &recordingTransport{Transport: c.net}
	probe, err := NewNode(rec, "probe", c.config(4))
	if err != nil {
		t.Fatal(err)
	}
	c.nodes["probe"] = probe
	if err := probe.Join("node-0"); err != nil {
		t.Fatal(err)
	}
	c.converge(3)

	far := probe.space.Add(probe.Self().ID, probe.space.Size()/2)
	rec.take() // the join's and maintenance's lookups
	if _, err := probe.handleFindSucc(findSuccReq{K: far, Hops: 1}); err != nil {
		t.Fatal(err)
	}
	onward := rec.take()
	if len(onward) == 0 {
		t.Fatal("the probe resolved the far key without forwarding; the check saw nothing")
	}
	for _, req := range onward {
		if req.HasCursor {
			t.Fatalf("cursorless onward hop forwarded with a cursor: %+v", req)
		}
	}

	if _, err := probe.handleFindSucc(findSuccReq{K: far}); err != nil {
		t.Fatal(err)
	}
	cursored := false
	for _, req := range rec.take() {
		cursored = cursored || req.HasCursor
	}
	if !cursored {
		t.Fatal("an entry-point request sent no cursor onward; the control did not engage digit routing")
	}
}
