package transport

import (
	"context"
	"errors"
)

// Multi-group transport sharing. Both transports key their endpoint tables
// by (group flow label, address) so thousands of groups can share one
// process and — on TCP — one pipelined connection per peer pair. A Flow is
// the per-group view handed to each group's runtime: it pins the label so
// the runtime stays group-unaware, and the label travels in every frame
// header (wire v3) to route inbound traffic back to the right table.

// DefaultGroup is the flow label of the default group. Endpoints registered
// through the ungrouped Register/Call methods live here, which keeps
// single-group callers and old tooling working unchanged.
const DefaultGroup uint64 = 0

// GroupLabel derives the wire flow label for a named group: FNV-1a over the
// name, so independently started processes agree on a group's label without
// any coordination. The result is never DefaultGroup (0 is reserved).
func GroupLabel(name string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == DefaultGroup {
		h = 1
	}
	return h
}

// ErrGroupBacklog is returned (wrapped) when a request is refused because
// its group already has more than the transport's GroupBacklogLimit bytes
// buffered and unflushed on the target connection. It is a local quota
// rejection, not a peer failure: callers retry after backoff and must not
// count it against the peer.
var ErrGroupBacklog = errors.New("transport: group backlog over quota")

// groupTransport is the grouped endpoint contract both transports
// implement; Flow narrows it back to one group.
type groupTransport interface {
	CallGroup(ctx context.Context, gid uint64, from, to, kind string, payload any) (any, error)
	RegisterGroup(gid uint64, addr string, h Handler)
	UnregisterGroup(gid uint64, addr string)
}

// Flow is a single group's view of a shared transport: the same Call /
// Register surface the runtime already consumes, with the group flow label
// applied to every operation. Two Flows of the same transport share its
// sockets and fault plan; only the endpoint namespace and the per-group
// writer accounting are split by label.
type Flow struct {
	t   groupTransport
	gid uint64
}

// Flow returns the per-group view of the network for label gid.
func (n *Network) Flow(gid uint64) *Flow { return &Flow{t: n, gid: gid} }

// Flow returns the per-group view of the transport for label gid.
func (t *TCP) Flow(gid uint64) *Flow { return &Flow{t: t, gid: gid} }

// GroupID returns the flow label this view is pinned to.
func (f *Flow) GroupID() uint64 { return f.gid }

// Call invokes the handler registered at (group, to).
func (f *Flow) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	return f.t.CallGroup(ctx, f.gid, from, to, kind, payload)
}

// Register installs a handler for addr within this flow's group.
func (f *Flow) Register(addr string, h Handler) { f.t.RegisterGroup(f.gid, addr, h) }

// Unregister removes addr's handler within this flow's group.
func (f *Flow) Unregister(addr string) { f.t.UnregisterGroup(f.gid, addr) }

// BlobPayloads reports whether the underlying transport delivers payloads
// as pooled blobs (see TCP.BlobPayloads).
func (f *Flow) BlobPayloads() bool {
	if bp, ok := f.t.(interface{ BlobPayloads() bool }); ok {
		return bp.BlobPayloads()
	}
	return false
}
