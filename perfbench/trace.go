package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"camcast/internal/runtime"
	"camcast/internal/transport"
)

// spanKind is the RPC kind a span served or called, as far as the
// per-layer metrics distinguish kinds.
type spanKind uint8

const (
	kindOther spanKind = iota
	kindMulticast
	kindFlood
	kindOffer
	kindFindSucc
	numKinds
)

var kindNames = [numKinds]string{"other", "multicast", "flood", "offer", "find_successor"}

func kindOf(wire string) spanKind {
	for k, name := range kindNames {
		if name == wire && k != int(kindOther) {
			return spanKind(k)
		}
	}
	return kindOther
}

// spanLayer says which boundary a span was recorded at.
type spanLayer uint8

const (
	layerCall    spanLayer = iota // Transport.Call, on the calling node
	layerHandler                  // the handler a node registered, on the serving node
	layerMcast                    // Node.MulticastContext, on the source
)

// span is one recorded boundary crossing. node is the member it ran on;
// peer is the other end of an RPC (the callee of a call, the caller of a
// handler), or -1.
type span struct {
	start, end int64 // ns since the recorder's base
	node, peer int32
	kind       spanKind
	layer      spanLayer
}

// recorder keeps spans in a buffer allocated up front; a span past its end
// is counted as dropped. Nothing is recorded while it is off.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	buf     []span
	// index maps a member address to its member number. Each set-up
	// refills it before the first recorded span; it is only read after.
	index map[string]int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), buf: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[i] = s
}

func (r *recorder) member(addr string) int32 {
	if m, ok := r.index[addr]; ok {
		return m
	}
	return -1
}

// spans returns what has been recorded so far.
func (r *recorder) spans() []span {
	n := r.next.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return r.buf[:n]
}

// reset forgets every recorded span.
func (r *recorder) reset() {
	r.next.Store(0)
	r.dropped.Store(0)
}

// spanTransport records a span around every Call a node makes and around
// every request its handler serves. It overrides only Call and Register, so
// the rest of the transport contract passes through untouched.
type spanTransport struct {
	runtime.Transport
	rec  *recorder
	node int32
}

func (t *spanTransport) Call(ctx context.Context, from, to, kind string, payload any) (any, error) {
	if !t.rec.on.Load() {
		return t.Transport.Call(ctx, from, to, kind, payload)
	}
	start := t.rec.now()
	resp, err := t.Transport.Call(ctx, from, to, kind, payload)
	t.rec.add(span{start: start, end: t.rec.now(), node: t.node, peer: t.rec.member(to), kind: kindOf(kind), layer: layerCall})
	return resp, err
}

func (t *spanTransport) Register(addr string, h transport.Handler) {
	t.Transport.Register(addr, func(from, kind string, payload any) (any, error) {
		if !t.rec.on.Load() {
			return h(from, kind, payload)
		}
		start := t.rec.now()
		resp, err := h(from, kind, payload)
		t.rec.add(span{start: start, end: t.rec.now(), node: t.node, peer: t.rec.member(from), kind: kindOf(kind), layer: layerHandler})
		return resp, err
	})
}

// BlobPayloads forwards the wrapped transport's zero-copy capability:
// runtime.NewNode looks for it by type assertion, and hiding it would make
// a traced TCP run measure the copying payload path.
func (t *spanTransport) BlobPayloads() bool {
	bt, ok := t.Transport.(interface{ BlobPayloads() bool })
	return ok && bt.BlobPayloads()
}

// spanTree links recorded spans to their parents. With one message in
// flight, a call made by node X is a child of the innermost handler or
// MulticastContext span open on X that contains it, and a handler span on
// Y serving X is a child of the call from X to Y of the same kind that
// contains it. A span without such a parent is a root.
type spanTree struct {
	spans  []span
	parent []int32 // index into spans, or -1
	self   []int64 // duration minus the union of the children's intervals, ns
}

// maxParentScan bounds the backward search for a call's parent among the
// spans that started before it on the same node.
const maxParentScan = 64

func linkSpans(spans []span) spanTree {
	t := spanTree{spans: spans, parent: make([]int32, len(spans))}
	for i := range t.parent {
		t.parent[i] = -1
	}
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	contains := func(p, c span) bool { return p.start <= c.start && c.end <= p.end }

	// Handler and MulticastContext spans per node, by start.
	open := make(map[int32][]int32)
	// Call spans per (caller, callee, kind), by start.
	type callKey struct {
		from, to int32
		kind     spanKind
	}
	calls := make(map[callKey][]int32)
	for i, s := range spans {
		if s.layer == layerCall {
			k := callKey{s.node, s.peer, s.kind}
			calls[k] = append(calls[k], int32(i))
		} else {
			open[s.node] = append(open[s.node], int32(i))
		}
	}
	for _, idx := range open {
		byStart(idx)
	}
	for _, idx := range calls {
		byStart(idx)
	}
	// innermost returns the latest-starting candidate that contains c.
	innermost := func(cands []int32, c span) int32 {
		j := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].start > c.start })
		for scanned := 0; j > 0 && scanned < maxParentScan; scanned++ {
			j--
			if contains(spans[cands[j]], c) {
				return cands[j]
			}
		}
		return -1
	}
	children := make([][]interval, len(spans))
	for i, s := range spans {
		switch s.layer {
		case layerCall:
			t.parent[i] = innermost(open[s.node], s)
		case layerHandler:
			if s.peer >= 0 {
				t.parent[i] = innermost(calls[callKey{s.peer, s.node, s.kind}], s)
			}
		}
		if p := t.parent[i]; p >= 0 {
			children[p] = append(children[p], interval{s.start, s.end})
		}
	}
	t.self = make([]int64, len(spans))
	for i, s := range spans {
		t.self[i] = selfTime(interval{s.start, s.end}, children[i])
	}
	return t
}

var layerNames = [...]string{layerCall: "call", layerHandler: "handler", layerMcast: "multicast_context"}

// writeSpans writes every span of t to path as tab-separated values, one
// span a line. Times are nanoseconds since the recorder's base; nodes and
// peers are member numbers; parent is a line number counted from 0 after
// the header, or -1.
func writeSpans(path string, t spanTree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "start_ns\tend_ns\tlayer\tkind\tnode\tpeer\tparent\tself_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n",
			s.start, s.end, layerNames[s.layer], kindNames[s.kind], s.node, s.peer, t.parent[i], t.self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
