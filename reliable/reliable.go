// Package reliable layers per-source, in-order, gap-repaired delivery on
// top of camcast's best-effort multicast.
//
// The paper motivates capacity awareness with throughput "particularly in
// the case of reliable delivery" (Section 1); this package supplies that
// reliability: every sender numbers its messages and keeps a bounded
// retransmission buffer; every receiver tracks a per-source cursor, detects
// sequence gaps (from lost subtrees or dropped packets), and repairs them
// by NACKing the source directly over the overlay's unicast channel. If the
// source has already evicted a message from its buffer — or has left the
// group — the gap is reported and skipped so the stream never stalls.
//
//	sess, _ := reliable.New(net, "alice", "", camcast.Options{Capacity: 6}, reliable.Config{
//	    OnData: func(src string, seq uint64, data []byte) { ... }, // in order per source
//	    OnGap:  func(src string, seq uint64) { ... },              // permanently lost
//	})
//	seq, _ := sess.Send([]byte("tick 1"))
//	_ = sess.Sync() // announce the high-water mark so silent receivers catch up
package reliable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"camcast"
)

// Config parameterizes a reliable session.
type Config struct {
	// Window is how many of its own most recent messages a member keeps
	// for retransmission (default 128).
	Window int
	// MaxRepairBatch bounds the sequence numbers requested per NACK
	// (default 64).
	MaxRepairBatch int
	// OnData receives messages in per-source sequence order. Called from
	// protocol goroutines; do not call Session methods from inside it.
	OnData func(source string, seq uint64, payload []byte)
	// OnGap reports a sequence number that can no longer be recovered
	// (source departed or its buffer no longer holds it).
	OnGap func(source string, seq uint64)
}

func (c *Config) applyDefaults() {
	if c.Window == 0 {
		c.Window = 128
	}
	if c.MaxRepairBatch == 0 {
		c.MaxRepairBatch = 64
	}
}

// ErrTakenCallbacks reports Options that already carry delivery hooks.
var ErrTakenCallbacks = errors.New("reliable: Options.OnDeliver/OnRequest are managed by the session")

// Session is one group member with reliability state. The member under it
// is in-process (New) or socket-backed (NewTCP); the reliability protocol
// is transport-agnostic.
type Session struct {
	member *camcast.Member
	cfg    Config

	mu      sync.Mutex
	nextSeq uint64 // next sequence number to assign (starts at 1)
	sendBuf map[uint64][]byte
	peers   map[string]*peerState

	deliverMu sync.Mutex // serializes OnData/OnGap callbacks
}

// peerState tracks one remote source.
type peerState struct {
	next    uint64 // next sequence expected in order
	top     uint64 // highest sequence seen or announced
	pending map[uint64][]byte
}

// event is a resolved delivery or gap, emitted in order.
type event struct {
	seq     uint64
	payload []byte
	gap     bool
}

// New creates a member at addr (bootstrapping a fresh group when via is
// empty, joining through via otherwise) wrapped in a reliable session. The
// session owns opts.OnDeliver and opts.OnRequest.
func New(net *camcast.Network, addr, via string, opts camcast.Options, cfg Config) (*Session, error) {
	s, err := newSession(&opts, cfg)
	if err != nil {
		return nil, err
	}
	var m *camcast.Member
	if via == "" {
		m, err = net.Create(addr, opts)
	} else {
		m, err = net.Join(addr, via, opts)
	}
	if err != nil {
		return nil, err
	}
	s.member = m
	return s, nil
}

// NewTCP starts a member on its own real TCP socket at listenAddr (see
// camcast.ListenTCP) wrapped in a reliable session, bootstrapping a fresh
// group when via is empty and joining through via otherwise. The session
// owns opts.OnDeliver and opts.OnRequest. Close the underlying member
// (Member().Close()) when done.
func NewTCP(listenAddr, via string, opts camcast.Options, cfg Config) (*Session, error) {
	s, err := newSession(&opts, cfg)
	if err != nil {
		return nil, err
	}
	m, err := camcast.ListenTCP(listenAddr, via, opts)
	if err != nil {
		return nil, err
	}
	s.member = m
	return s, nil
}

// newSession builds the session state and claims the delivery hooks in
// opts, failing if the caller already took them.
func newSession(opts *camcast.Options, cfg Config) (*Session, error) {
	if opts.OnDeliver != nil || opts.OnRequest != nil {
		return nil, ErrTakenCallbacks
	}
	cfg.applyDefaults()
	s := &Session{
		cfg:     cfg,
		nextSeq: 1,
		sendBuf: make(map[uint64][]byte),
		peers:   make(map[string]*peerState),
	}
	opts.OnDeliver = s.onDeliver
	opts.OnRequest = s.onRepairRequest
	return s, nil
}

// Member exposes the underlying group member.
func (s *Session) Member() *camcast.Member { return s.member }

// Send multicasts payload reliably and returns its sequence number.
func (s *Session) Send(payload []byte) (uint64, error) {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	buffered := make([]byte, len(payload))
	copy(buffered, payload)
	s.sendBuf[seq] = buffered
	if evict := seq - uint64(s.cfg.Window); evict >= 1 && seq > uint64(s.cfg.Window) {
		delete(s.sendBuf, evict)
	}
	s.mu.Unlock()

	if _, err := s.member.MulticastContext(context.Background(), encodeData(seq, payload)); err != nil {
		return 0, err
	}
	return seq, nil
}

// Sync multicasts the sender's high-water mark so receivers that missed
// entire messages (lost subtrees) detect and repair the gaps.
func (s *Session) Sync() error {
	s.mu.Lock()
	top := s.nextSeq - 1
	s.mu.Unlock()
	_, err := s.member.MulticastContext(context.Background(), encodeSync(top))
	return err
}

// Heal re-attempts repair for every known source with outstanding gaps.
// Call it after partitions heal or drop storms end.
func (s *Session) Heal() {
	s.mu.Lock()
	sources := make([]string, 0, len(s.peers))
	for src, p := range s.peers {
		if p.next <= p.top {
			sources = append(sources, src)
		}
	}
	s.mu.Unlock()
	for _, src := range sources {
		s.repair(src)
	}
}

// Outstanding returns the number of sequence numbers currently missing
// (unrecovered gaps plus undelivered pending) across all sources.
func (s *Session) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, p := range s.peers {
		if p.top >= p.next {
			total += int(p.top-p.next) + 1 - len(p.pending)
		}
	}
	return total
}

// onDeliver is the camcast delivery hook.
func (s *Session) onDeliver(m camcast.Message) {
	if m.From == s.member.Addr() {
		return // our own copy
	}
	kind, seq, data, err := decode(m.Payload)
	if err != nil {
		return // not a reliable-envelope message; ignore
	}

	s.mu.Lock()
	p := s.peer(m.From)
	switch kind {
	case kindData:
		if seq >= p.next {
			if _, dup := p.pending[seq]; !dup {
				// data views m.Payload, which camcast owns only for the
				// duration of this callback (on the TCP transport it aliases
				// a pooled buffer): anything kept past return must be a copy.
				p.pending[seq] = bytes.Clone(data)
			}
			if seq > p.top {
				p.top = seq
			}
		}
	case kindSync:
		if seq > p.top {
			p.top = seq
		}
	}
	ready := p.drain(nil)
	gapsRemain := p.next <= p.top && uint64(len(p.pending)) < p.top-p.next+1
	s.mu.Unlock()

	s.emit(m.From, ready)
	if gapsRemain {
		s.repair(m.From)
	}
}

// repair NACKs the source for the missing range and integrates the reply.
func (s *Session) repair(source string) {
	s.mu.Lock()
	p := s.peer(source)
	missing := make([]uint64, 0, s.cfg.MaxRepairBatch)
	for seq := p.next; seq <= p.top && len(missing) < s.cfg.MaxRepairBatch; seq++ {
		if _, ok := p.pending[seq]; !ok {
			missing = append(missing, seq)
		}
	}
	s.mu.Unlock()
	if len(missing) == 0 {
		return
	}

	resp, err := s.member.RequestContext(context.Background(), source, encodeRepairReq(missing))
	if err != nil {
		return // source unreachable; Heal can retry later
	}
	recovered, err := decodeRepairResp(resp)
	if err != nil {
		return
	}

	s.mu.Lock()
	for seq, data := range recovered {
		if seq >= p.next {
			p.pending[seq] = data
		}
	}
	// Anything we asked for that the source no longer has is gone for good.
	lost := make(map[uint64]bool)
	for _, seq := range missing {
		if _, ok := recovered[seq]; !ok {
			lost[seq] = true
		}
	}
	ready := p.drain(lost)
	s.mu.Unlock()

	s.emit(source, ready)
}

// onRepairRequest serves NACKs against the local send buffer.
func (s *Session) onRepairRequest(from string, payload []byte) ([]byte, error) {
	missing, err := decodeRepairReq(payload)
	if err != nil {
		return nil, fmt.Errorf("reliable: bad repair request from %s: %w", from, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	found := make(map[uint64][]byte, len(missing))
	for _, seq := range missing {
		if data, ok := s.sendBuf[seq]; ok {
			found[seq] = data
		}
	}
	return encodeRepairResp(found), nil
}

// peer returns (creating if needed) the state for source. Caller holds mu.
func (s *Session) peer(source string) *peerState {
	p, ok := s.peers[source]
	if !ok {
		p = &peerState{next: 1, pending: make(map[uint64][]byte)}
		s.peers[source] = p
	}
	return p
}

// drain advances the in-order cursor, returning deliverable events. Gaps
// listed in lost are emitted as gap events and skipped. Caller holds mu.
func (p *peerState) drain(lost map[uint64]bool) []event {
	var out []event
	for {
		if data, ok := p.pending[p.next]; ok {
			out = append(out, event{seq: p.next, payload: data})
			delete(p.pending, p.next)
			p.next++
			continue
		}
		if lost[p.next] {
			out = append(out, event{seq: p.next, gap: true})
			p.next++
			continue
		}
		return out
	}
}

// emit invokes the user callbacks outside the state lock, serialized so
// ordering guarantees hold.
func (s *Session) emit(source string, events []event) {
	if len(events) == 0 {
		return
	}
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	for _, ev := range events {
		if ev.gap {
			if s.cfg.OnGap != nil {
				s.cfg.OnGap(source, ev.seq)
			}
			continue
		}
		if s.cfg.OnData != nil {
			s.cfg.OnData(source, ev.seq, ev.payload)
		}
	}
}
