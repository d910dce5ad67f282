package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
)

func TestLinkSpansAndSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, node: 0, peer: -1, layer: layerMcast},                         // 0
		{start: 10, end: 60, node: 0, peer: 1, kind: kindMulticast, layer: layerCall},      // 1
		{start: 15, end: 55, node: 1, peer: 0, kind: kindMulticast, layer: layerHandler},   // 2
		{start: 20, end: 40, node: 1, peer: 2, kind: kindMulticast, layer: layerCall},      // 3
		{start: 22, end: 38, node: 2, peer: 1, kind: kindMulticast, layer: layerHandler},   // 4
		{start: 30, end: 70, node: 0, peer: 2, kind: kindFindSucc, layer: layerCall},       // 5
		{start: 32, end: 68, node: 2, peer: 0, kind: kindFindSucc, layer: layerHandler},    // 6
		{start: 200, end: 210, node: 3, peer: 0, kind: kindOther, layer: layerCall},        // 7: maintenance, no parent
		{start: 201, end: 209, node: 0, peer: 3, kind: kindOther, layer: layerHandler},     // 8
		{start: 300, end: 310, node: 1, peer: 0, kind: kindMulticast, layer: layerHandler}, // 9: caller not traced
	}
	tree := linkSpans(spans)
	wantParent := []int32{-1, 0, 1, 2, 3, 0, 5, -1, 7, -1}
	for i, want := range wantParent {
		if tree.parent[i] != want {
			t.Errorf("span %d parent %d, want %d", i, tree.parent[i], want)
		}
	}
	// The source's children, calls [10,60] and [30,70], overlap: their
	// union [10,70] is covered once.
	wantSelf := []int64{40, 10, 20, 4, 16, 4, 36, 2, 8, 10}
	for i, want := range wantSelf {
		if got := tree.self[i]; got != want {
			t.Errorf("span %d self %d, want %d", i, got, want)
		}
	}
}

func TestWriteSpans(t *testing.T) {
	tree := linkSpans([]span{
		{start: 0, end: 100, node: 0, peer: -1, layer: layerMcast},
		{start: 10, end: 60, node: 0, peer: 1, kind: kindMulticast, layer: layerCall},
	})
	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := writeSpans(path, tree); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "start_ns\tend_ns\tlayer\tkind\tnode\tpeer\tparent\tself_ns\n" +
		"0\t100\tmulticast_context\tother\t0\t-1\t-1\t50\n" +
		"10\t60\tcall\tmulticast\t0\t1\t0\t50\n"
	if string(raw) != want {
		t.Fatalf("spans file:\n%s\nwant:\n%s", raw, want)
	}
}

func TestKindOf(t *testing.T) {
	for wire, want := range map[string]spanKind{
		"multicast": kindMulticast, "flood": kindFlood, "offer": kindOffer,
		"find_successor": kindFindSucc, "notify": kindOther, "other": kindOther,
	} {
		if got := kindOf(wire); got != want {
			t.Errorf("kindOf(%q) = %v, want %v", wire, got, want)
		}
	}
}

// hiding wraps a transport without forwarding BlobPayloads.
type hiding struct{ runtime.Transport }

// originEncodes builds an eight-member CAM-Chord group on loopback TCP, each
// member's transport wrapped by wrap, sends one multicast and returns the
// payload materializations the registry counted.
func originEncodes(t *testing.T, wrap func(runtime.Transport, int32) runtime.Transport) uint64 {
	t.Helper()
	runtime.RegisterWireTypes()
	w := Workload{Name: "blob", Mode: runtime.ModeCAMChord, TCP: true, Members: 8, Payload: 1 << 10}
	in := GenerateInputs(w, 4242)
	reg := obsv.NewRegistry()
	space := ring.MustSpace(ringBits)
	var nodes []*runtime.Node
	spare := in.Spare
	for i, addr := range in.Addrs {
		tcp, rest, err := listen(addr, spare)
		if err != nil {
			t.Fatal(err)
		}
		spare = rest
		defer tcp.Close()
		tcp.Instrument(reg)
		n, err := runtime.NewNode(wrap(tcp, int32(i)), tcp.Addr(), runtime.Config{
			Space: space, Mode: w.Mode, Capacity: 8, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	if err := runtime.BulkInstall(nodes, runtime.BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Multicast(newPayload(in)); err != nil {
		t.Fatal(err)
	}
	return reg.Counter(obsv.MetricPayloadEncodes).Load()
}

func TestSpanTransportKeepsBlobPath(t *testing.T) {
	rec := newRecorder(1 << 12)
	rec.on.Store(true)
	wrapped := originEncodes(t, func(tr runtime.Transport, i int32) runtime.Transport {
		return &spanTransport{Transport: tr, rec: rec, node: i}
	})
	// On the blob path the source materializes the payload once and each
	// other member decodes it once, straight into a blob.
	if wrapped != 8 {
		t.Errorf("wrapped TCP group counted %d payload encodes, want 8", wrapped)
	}
	if len(rec.spans()) == 0 {
		t.Error("recorder saw no spans")
	}
	// A wrapper that hides BlobPayloads makes the source encode once per
	// child frame; the count above must be able to tell.
	hidden := originEncodes(t, func(tr runtime.Transport, _ int32) runtime.Transport { return hiding{tr} })
	if hidden == wrapped {
		t.Errorf("hiding BlobPayloads left the encode count at %d; the check cannot see the copying path", hidden)
	}
}

func tinyWorkload(mode runtime.Mode, tcp bool) Workload {
	return Workload{Name: "tiny", Mode: mode, TCP: tcp, Members: 24, Payload: 256,
		Setups: 1, Warmup: 2, MaxMessages: 64, SpanCap: 1 << 17}
}

func TestTracedGroupReportsEveryLayerMetric(t *testing.T) {
	for _, c := range []struct {
		mode runtime.Mode
		tcp  bool
	}{
		{runtime.ModeCAMChord, false},
		{runtime.ModeCAMKoorde, false},
		{runtime.ModeCAMChord, true},
	} {
		w := tinyWorkload(c.mode, c.tcp)
		in := GenerateInputs(w, 99)
		rec := newRecorder(w.SpanCap)
		g, err := newGroup(w, in, 99, rec)
		if err != nil {
			t.Fatal(err)
		}
		untraced, err := g.run(in, 0, 8, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.on.Store(true)
		traced, err := g.run(in, 0, 8, time.Minute, nil)
		rec.on.Store(false)
		if err != nil {
			t.Fatal(err)
		}
		g.close()
		for _, p := range []phase{untraced, traced} {
			if !p.verdict.OK(w.Members) {
				t.Fatalf("%v tcp=%v: verdict %v", c.mode, c.tcp, p.verdict)
			}
		}
		tree := linkSpans(rec.spans())
		mcasts := 0
		for i, s := range tree.spans {
			switch {
			case s.layer == layerMcast:
				mcasts++
			case s.layer == layerHandler && (s.kind == kindMulticast || s.kind == kindFlood) && tree.parent[i] < 0:
				t.Errorf("%v tcp=%v: %s handler span %d has no calling span", c.mode, c.tcp, kindNames[s.kind], i)
			}
		}
		if mcasts != traced.sent {
			t.Errorf("%v tcp=%v: %d MulticastContext spans for %d multicasts", c.mode, c.tcp, mcasts, traced.sent)
		}
		values := layerValues(g, untraced, traced, tree, 1)
		for _, m := range perLayer {
			v, ok := values[m.Name]
			if !ok || v != v {
				t.Errorf("%v tcp=%v: metric %s = %v, %v", c.mode, c.tcp, m.Name, v, ok)
			}
		}
		if len(values) != len(perLayer) {
			t.Errorf("%d values for %d per-layer metrics", len(values), len(perLayer))
		}
		if values["runtime.self_us_per_delivery"] <= 0 || values["transport.self_us_per_delivery"] <= 0 {
			t.Errorf("%v tcp=%v: zero self time per delivery: %v", c.mode, c.tcp, values)
		}
	}
}
