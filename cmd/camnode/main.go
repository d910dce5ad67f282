// Command camnode is an interactive demo of the live multicast runtime: a
// REPL that manages an in-process group of members, lets any member send,
// and shows deliveries as they happen.
//
//	$ go run ./cmd/camnode
//	> create alice 6
//	> join bob alice 4
//	> join carol alice 4
//	> settle
//	> send bob hello world
//	  [alice] bob: hello world (2 hops)
//	  ...
//	> crash carol
//	> members
//	> quit
//
// Flags: -protocol cam-chord|cam-koorde (default cam-chord); -tcp hosts
// every member on its own real TCP listener (loopback sockets) instead of
// the in-process simulated transport; -debug-addr host:port serves
// the live observability endpoint (/debug/camcast/{stats,neighbors,events}
// plus net/http/pprof) while the REPL runs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"camcast"
)

func main() {
	protocol := flag.String("protocol", "cam-chord", "cam-chord | cam-koorde")
	tcp := flag.Bool("tcp", false, "host each member on its own TCP listener instead of the in-process transport")
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoint (JSON stats, event tail, pprof) on this host:port")
	flag.Parse()
	if err := run(*protocol, *tcp, *debugAddr, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "camnode:", err)
		os.Exit(1)
	}
}

// group abstracts the two member-hosting modes of the REPL: one in-process
// simulated network, or one real TCP transport per member.
type group interface {
	create(label string, opts camcast.Options) (*camcast.Member, error)
	join(label, via string, opts camcast.Options) (*camcast.Member, error)
	member(label string) (*camcast.Member, error)
	labels() []string
	settle(rounds int)
	leave(label string) error
	crash(label string) error
	// Tenant-group control plane: groupCreate registers a named group
	// (optionally token-protected), groupUse switches the session's
	// member commands onto it, groupList describes every group.
	groupCreate(name, token string) error
	groupUse(name, token string) (string, error)
	groupList() []camcast.GroupInfo
	// debugHandler serves the group's live observability surface for the
	// -debug-addr endpoint.
	debugHandler() http.Handler
	close()
}

// session holds the REPL state.
type session struct {
	grp      group
	protocol camcast.Protocol
	out      io.Writer

	// outMu serializes writes to out: delivery callbacks print from
	// concurrent forwarding goroutines.
	outMu sync.Mutex
}

// printf writes formatted output to the session's output under outMu.
func (s *session) printf(format string, args ...any) {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	fmt.Fprintf(s.out, format, args...)
}

func run(protocolName string, tcp bool, debugAddr string, in io.Reader, out io.Writer) error {
	var protocol camcast.Protocol
	switch protocolName {
	case "cam-chord":
		protocol = camcast.CAMChord
	case "cam-koorde":
		protocol = camcast.CAMKoorde
	default:
		return fmt.Errorf("unknown protocol %q", protocolName)
	}

	var grp group
	mode := "in-process"
	if tcp {
		grp = newTCPGroup()
		mode = "tcp"
	} else {
		grp = newMemGroup()
	}
	s := &session{grp: grp, protocol: protocol, out: out}
	defer s.grp.close()

	if debugAddr != "" {
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr %s: %w", debugAddr, err)
		}
		srv := &http.Server{Handler: grp.debugHandler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(out, "debug endpoint: http://%s/debug/camcast/stats\n", ln.Addr())
	}

	fmt.Fprintf(out, "camnode (%s, %s) — type 'help' for commands\n", protocol, mode)
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !scanner.Scan() {
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		quit, err := s.execute(line)
		if err != nil {
			fmt.Fprintf(out, "  error: %v\n", err)
		}
		if quit {
			return nil
		}
	}
}

// execute runs one REPL command; it returns quit=true on "quit".
func (s *session) execute(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
	case "create":
		return false, s.create(args)
	case "join":
		return false, s.join(args)
	case "leave":
		return false, s.leaveOrCrash(args, false)
	case "crash":
		return false, s.leaveOrCrash(args, true)
	case "send":
		return false, s.send(args)
	case "members":
		s.members()
	case "groups":
		s.groups()
	case "group":
		return false, s.group(args)
	case "stats":
		return false, s.stats(args)
	case "settle":
		s.grp.settle(3)
		s.printf("  maintenance converged\n")
	case "quit", "exit":
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return false, nil
}

func (s *session) help() {
	s.printf(`  create <addr> [capacity]        start a new group
  join <addr> <via> [capacity]    join through an existing member
  leave <addr>                    graceful departure
  crash <addr>                    fail without notice
  send <addr> <text...>           multicast from a member
  members                         list members of the current group (sorted by ring id)
  groups                          list tenant groups
  group create <name> [token]     register a tenant group (token-protected if given)
  group use <name> [token]        switch member commands onto a group
  stats <addr>                    protocol counters of a member
  settle                          run maintenance to convergence
  quit                            exit
`)
}

func (s *session) options(addr string, capacity int) camcast.Options {
	return camcast.Options{
		Protocol:  s.protocol,
		Capacity:  capacity,
		Stabilize: -1, // the REPL drives maintenance via 'settle'
		Fix:       -1,
		OnDeliver: func(m camcast.Message) {
			s.printf("  [%s] %s: %s (%d hops)\n", addr, m.From, m.Payload, m.Hops)
		},
	}
}

func parseCapacity(args []string, idx, fallback int) (int, error) {
	if len(args) <= idx {
		return fallback, nil
	}
	c, err := strconv.Atoi(args[idx])
	if err != nil {
		return 0, fmt.Errorf("capacity %q: %w", args[idx], err)
	}
	return c, nil
}

func (s *session) create(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: create <addr> [capacity]")
	}
	capacity, err := parseCapacity(args, 1, 8)
	if err != nil {
		return err
	}
	m, err := s.grp.create(args[0], s.options(args[0], capacity))
	if err != nil {
		return err
	}
	s.printf("  %s bootstrapped at %s (id %d, capacity %d)\n", args[0], m.Addr(), m.ID(), m.Capacity())
	return nil
}

func (s *session) join(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: join <addr> <via> [capacity]")
	}
	capacity, err := parseCapacity(args, 2, 8)
	if err != nil {
		return err
	}
	m, err := s.grp.join(args[0], args[1], s.options(args[0], capacity))
	if err != nil {
		return err
	}
	s.grp.settle(2)
	s.printf("  %s joined via %s at %s (id %d, capacity %d)\n", args[0], args[1], m.Addr(), m.ID(), m.Capacity())
	return nil
}

func (s *session) leaveOrCrash(args []string, crash bool) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: leave|crash <addr>")
	}
	if crash {
		if err := s.grp.crash(args[0]); err != nil {
			return err
		}
		s.printf("  %s crashed\n", args[0])
		return nil
	}
	if err := s.grp.leave(args[0]); err != nil {
		return err
	}
	s.printf("  %s left\n", args[0])
	return nil
}

func (s *session) send(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: send <addr> <text...>")
	}
	m, err := s.grp.member(args[0])
	if err != nil {
		return err
	}
	msgID, err := m.MulticastContext(context.Background(), []byte(strings.Join(args[1:], " ")))
	if err != nil {
		return err
	}
	// Deliveries print from protocol goroutines; give them a beat so the
	// prompt returns after the output.
	time.Sleep(20 * time.Millisecond)
	s.printf("  message %s sent\n", msgID)
	return nil
}

func (s *session) members() {
	type row struct {
		addr string
		id   uint64
		cap  int
	}
	var rows []row
	for _, label := range s.grp.labels() {
		m, err := s.grp.member(label)
		if err != nil {
			continue
		}
		rows = append(rows, row{addr: label, id: m.ID(), cap: m.Capacity()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		s.printf("  %-12s id=%-12d capacity=%d\n", r.addr, r.id, r.cap)
	}
	s.printf("  %d members\n", len(rows))
}

func (s *session) groups() {
	for _, info := range s.grp.groupList() {
		prot := ""
		if info.Protected {
			prot = " (token-protected)"
		}
		s.printf("  %-16s flow=%#016x members=%d%s\n", info.Name, info.Flow, info.MemberCount, prot)
	}
}

func (s *session) group(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: group create|use <name> [token]")
	}
	token := ""
	if len(args) > 2 {
		token = args[2]
	}
	switch args[0] {
	case "create":
		if err := s.grp.groupCreate(args[1], token); err != nil {
			return err
		}
		s.printf("  group %s created\n", args[1])
		return nil
	case "use":
		name, err := s.grp.groupUse(args[1], token)
		if err != nil {
			return err
		}
		s.printf("  now operating in group %s\n", name)
		return nil
	}
	return fmt.Errorf("usage: group create|use <name> [token]")
}

func (s *session) stats(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: stats <addr>")
	}
	m, err := s.grp.member(args[0])
	if err != nil {
		return err
	}
	st := m.Stats()
	s.printf("  delivered=%d forwarded=%d duplicates=%d lookups=%d table-faults=%d\n",
		st.Delivered, st.Forwarded, st.Duplicates, st.Lookups, st.TableFaults)
	s.printf("  acked=%d retries=%d repaired=%d lost=%d\n",
		st.ChildrenAcked, st.Retries, st.SegmentsRepaired, st.SegmentsLost)
	return nil
}

// memGroup hosts members on one in-process simulated network. Member
// commands act on cur, the tenant group selected with 'group use'
// (initially the default group).
type memGroup struct {
	net *camcast.Network
	cur *camcast.Group
}

func newMemGroup() *memGroup {
	n := camcast.NewNetwork()
	return &memGroup{net: n, cur: n.DefaultGroup()}
}

func (g *memGroup) create(label string, opts camcast.Options) (*camcast.Member, error) {
	return g.cur.Create(label, opts)
}

func (g *memGroup) join(label, via string, opts camcast.Options) (*camcast.Member, error) {
	return g.cur.Join(label, via, opts)
}

func (g *memGroup) member(label string) (*camcast.Member, error) { return g.cur.Member(label) }

func (g *memGroup) labels() []string { return g.cur.Members() }

func (g *memGroup) debugHandler() http.Handler { return g.net.DebugHandler() }

func (g *memGroup) settle(rounds int) { g.cur.Settle(rounds) }

func (g *memGroup) leave(label string) error {
	m, err := g.cur.Member(label)
	if err != nil {
		return err
	}
	return m.Leave()
}

func (g *memGroup) crash(label string) error {
	m, err := g.cur.Member(label)
	if err != nil {
		return err
	}
	m.Close()
	return nil
}

func (g *memGroup) groupCreate(name, token string) error {
	_, err := g.net.CreateGroup(name, camcast.GroupOptions{Token: token})
	return err
}

func (g *memGroup) groupUse(name, token string) (string, error) {
	grp, err := g.net.JoinGroup(name, token)
	if err != nil {
		return "", err
	}
	g.cur = grp
	return grp.Name(), nil
}

func (g *memGroup) groupList() []camcast.GroupInfo { return g.net.Groups() }

func (g *memGroup) close() { g.net.Close() }

// tcpGroup hosts each member on its own real TCP listener (loopback), in
// the groups of the same control plane as the in-process mode: the current
// group counts, lists and settles its TCP members like in-process ones.
// Labels name members at the REPL; the transport uses the bound
// "127.0.0.1:port" addresses underneath. The mutex covers the label map:
// the REPL goroutine mutates it while the -debug-addr HTTP server reads it.
type tcpGroup struct {
	*memGroup

	mu      sync.Mutex
	members map[string]*camcast.Member // by label
}

func newTCPGroup() *tcpGroup {
	return &tcpGroup{memGroup: newMemGroup(), members: make(map[string]*camcast.Member)}
}

func (g *tcpGroup) lookup(label string) (*camcast.Member, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[label]
	return m, ok
}

func (g *tcpGroup) create(label string, opts camcast.Options) (*camcast.Member, error) {
	return g.listen(label, "", opts)
}

func (g *tcpGroup) join(label, via string, opts camcast.Options) (*camcast.Member, error) {
	boot, ok := g.lookup(via)
	if !ok {
		return nil, fmt.Errorf("no member %q to join through", via)
	}
	if boot.Group() != g.cur.Name() {
		return nil, fmt.Errorf("member %q is in group %q, not the current group %q", via, boot.Group(), g.cur.Name())
	}
	return g.listen(label, boot.Addr(), opts)
}

// listen starts the member labelled label on a listener of its own in the
// current group.
func (g *tcpGroup) listen(label, via string, opts camcast.Options) (*camcast.Member, error) {
	if _, ok := g.lookup(label); ok {
		return nil, fmt.Errorf("member %q already exists", label)
	}
	// Loopback peers answer fast: a tight RPC deadline keeps the REPL
	// snappy after a crash.
	m, err := g.cur.Listen("127.0.0.1:0", via, opts, camcast.HostOptions{RPCTimeout: 2 * time.Second})
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.members[label] = m
	g.mu.Unlock()
	return m, nil
}

func (g *tcpGroup) member(label string) (*camcast.Member, error) {
	m, ok := g.lookup(label)
	if !ok {
		return nil, fmt.Errorf("no such member %q", label)
	}
	return m, nil
}

func (g *tcpGroup) labels() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for label, m := range g.members {
		if m.Group() == g.cur.Name() {
			out = append(out, label)
		}
	}
	return out
}

// take removes the member labelled label from the REPL's map.
func (g *tcpGroup) take(label string) (*camcast.Member, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[label]
	if !ok {
		return nil, fmt.Errorf("no such member %q", label)
	}
	delete(g.members, label)
	return m, nil
}

func (g *tcpGroup) leave(label string) error {
	m, err := g.take(label)
	if err != nil {
		return err
	}
	return m.Leave()
}

func (g *tcpGroup) crash(label string) error {
	m, err := g.take(label)
	if err != nil {
		return err
	}
	m.Close()
	return nil
}

// debugHandler routes the -debug-addr endpoint for the TCP mode. Every
// member runs its own bus and registry (it is its own process-equivalent),
// so the handler dispatches by label: GET / lists members, and
// /member/<label>/debug/... serves that member's full debug surface.
func (g *tcpGroup) debugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, "/member/")
		if !ok {
			labels := g.labels()
			sort.Strings(labels)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"members\":[")
			for i, l := range labels {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%q", l)
			}
			fmt.Fprintf(w, "],\"hint\":\"GET /member/<label>/debug/camcast/stats\"}\n")
			return
		}
		label, _, _ := strings.Cut(rest, "/")
		m, ok := g.lookup(label)
		if !ok {
			http.NotFound(w, r)
			return
		}
		http.StripPrefix("/member/"+label, m.DebugHandler()).ServeHTTP(w, r)
	})
}

// close stops every member: each owns its listener, which the Network
// does not.
func (g *tcpGroup) close() {
	g.mu.Lock()
	members := g.members
	g.members = nil
	g.mu.Unlock()
	for _, m := range members {
		m.Close()
	}
	g.net.Close()
}
