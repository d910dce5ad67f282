package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"camcast"
)

func newDebugRequest(t *testing.T, path string) (*http.Request, *httptest.ResponseRecorder) {
	t.Helper()
	return httptest.NewRequest(http.MethodGet, path, nil), httptest.NewRecorder()
}

func newTestSession(t *testing.T) (*session, *strings.Builder) {
	t.Helper()
	out := &strings.Builder{}
	s := &session{grp: newMemGroup(), protocol: camcast.CAMChord, out: out}
	t.Cleanup(s.grp.close)
	return s, out
}

func newTestTCPSession(t *testing.T) (*session, *strings.Builder) {
	t.Helper()
	out := &strings.Builder{}
	s := &session{
		grp:      newTCPGroup(),
		protocol: camcast.CAMChord,
		out:      out,
	}
	t.Cleanup(s.grp.close)
	return s, out
}

func exec(t *testing.T, s *session, line string) {
	t.Helper()
	if _, err := s.execute(line); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	s, out := newTestSession(t)
	exec(t, s, "create alice 6")
	exec(t, s, "join bob alice 4")
	exec(t, s, "join carol alice 4")
	exec(t, s, "settle")
	exec(t, s, "send bob hello world")
	exec(t, s, "members")
	exec(t, s, "stats bob")
	exec(t, s, "leave carol")
	exec(t, s, "crash bob")

	text := out.String()
	for _, want := range []string{
		"alice bootstrapped",
		"bob joined via alice",
		"[alice] bob: hello world",
		"3 members",
		"delivered=",
		"carol left",
		"bob crashed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
}

func TestSessionQuit(t *testing.T) {
	s, _ := newTestSession(t)
	quit, err := s.execute("quit")
	if err != nil || !quit {
		t.Fatalf("quit = (%v, %v)", quit, err)
	}
}

func TestSessionErrors(t *testing.T) {
	s, _ := newTestSession(t)
	bad := []string{
		"bogus",
		"create",
		"join onlyone",
		"send ghost hi",
		"send",
		"leave",
		"stats ghost",
		"create alice notanumber",
	}
	for _, line := range bad {
		if _, err := s.execute(line); err == nil {
			t.Errorf("%q should error", line)
		}
	}
}

func TestSessionHelp(t *testing.T) {
	s, out := newTestSession(t)
	exec(t, s, "help")
	if !strings.Contains(out.String(), "create <addr>") {
		t.Error("help output wrong")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run("bogus", false, "", strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("unknown protocol should fail")
	}
}

func TestRunKoordeSession(t *testing.T) {
	in := strings.NewReader("create a 5\njoin b a 5\nsettle\nsend a hi\nquit\n")
	out := &strings.Builder{}
	if err := run("cam-koorde", false, "", in, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[b] a: hi") {
		t.Errorf("koorde session output:\n%s", out.String())
	}
}

// safeBuffer lets the test read the REPL's output while run is still
// writing it from another goroutine.
type safeBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunDebugEndpoint is the -debug-addr integration test: a full run()
// with a scripted session, curled over real HTTP while the REPL is live.
// It asserts the stats route serves JSON with the expected counters and
// that pprof responds.
func TestRunDebugEndpoint(t *testing.T) {
	inR, inW := io.Pipe()
	out := &safeBuffer{}
	errc := make(chan error, 1)
	go func() { errc <- run("cam-chord", false, "127.0.0.1:0", inR, out) }()
	defer inW.Close()

	if _, err := io.WriteString(inW, "create alice 6\njoin bob alice 4\nsettle\nsend alice ping\n"); err != nil {
		t.Fatal(err)
	}

	// The debug line prints before the first prompt; wait for it.
	addrRE := regexp.MustCompile(`debug endpoint: http://([^/\s]+)/`)
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug endpoint line never printed:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stats: poll until the scripted multicast shows up in the counters.
	var stats struct {
		Metrics camcast.MetricsSnapshot `json:"metrics"`
		Extra   camcast.CountersSnapshot
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/camcast/stats")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		if stats.Metrics.Counters["runtime.delivered"] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never showed the delivery: %+v", stats.Metrics.Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats.Extra.ForwardAcked == 0 {
		t.Error("stats extra shows no acked forwards after a 2-member multicast")
	}

	var neighbors []camcast.NeighborInfo
	resp, err := http.Get(base + "/debug/camcast/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&neighbors); err != nil {
		t.Fatalf("neighbors decode: %v", err)
	}
	resp.Body.Close()
	if len(neighbors) != 2 {
		t.Errorf("neighbors lists %d members, want 2", len(neighbors))
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d, want 200", resp.StatusCode)
	}

	if _, err := io.WriteString(inW, "quit\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestTCPGroupDebugHandler exercises the per-member dispatch of the TCP
// mode's debug surface directly.
func TestTCPGroupDebugHandler(t *testing.T) {
	s, _ := newTestTCPSession(t)
	exec(t, s, "create alice 6")
	exec(t, s, "join bob alice 4")
	exec(t, s, "settle")
	exec(t, s, "send alice over-tcp")

	h := s.grp.debugHandler()
	get := func(path string) (*http.Response, string) {
		t.Helper()
		req, rec := newDebugRequest(t, path)
		h.ServeHTTP(rec, req)
		res := rec.Result()
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return res, string(body)
	}

	res, body := get("/")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, `"alice"`) || !strings.Contains(body, `"bob"`) {
		t.Errorf("index = %d %q", res.StatusCode, body)
	}
	res, body = get("/member/alice/debug/camcast/stats")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("member stats status %d", res.StatusCode)
	}
	var stats struct {
		Metrics camcast.MetricsSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("member stats decode: %v", err)
	}
	if stats.Metrics.Counters["runtime.delivered"] != 1 {
		t.Errorf("alice delivered = %d, want 1", stats.Metrics.Counters["runtime.delivered"])
	}
	if res, _ := get("/member/ghost/debug/camcast/stats"); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown member status %d, want 404", res.StatusCode)
	}
}

// TestSessionLifecycleTCP runs the same REPL flow with every member on its
// own real TCP listener.
func TestSessionLifecycleTCP(t *testing.T) {
	s, out := newTestTCPSession(t)
	exec(t, s, "create alice 6")
	exec(t, s, "join bob alice 4")
	exec(t, s, "settle")
	exec(t, s, "send bob hello tcp")
	exec(t, s, "members")
	exec(t, s, "crash bob")

	text := out.String()
	for _, want := range []string{
		"alice bootstrapped",
		"bob joined via alice",
		"bob crashed",
		"2 members",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
}
