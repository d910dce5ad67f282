package runtime

import (
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// RPC kinds exchanged between runtime nodes over the transport.
const (
	kindPing      = "ping"
	kindFindSucc  = "find_successor"
	kindNeighbors = "neighbors" // predecessor + successor list exchange
	kindNotify    = "notify"
	kindMulticast = "multicast" // CAM-Chord segment delivery
	kindOffer     = "offer"     // CAM-Koorde dedup handshake
	kindFlood     = "flood"     // CAM-Koorde payload delivery
	kindReflood   = "reflood"   // CAM-Koorde repair: re-offer via a surviving neighbor
	kindLeaving   = "leaving"   // graceful departure notification
	kindApp       = "app"       // application-level unicast request
)

// NodeInfo identifies a remote node: its transport address and its ring
// identifier.
type NodeInfo struct {
	Addr string
	ID   ring.ID
}

// zero reports whether the info is unset.
func (i NodeInfo) zero() bool { return i.Addr == "" }

type pingReq struct {
	// Probe is reserved: no sender sets it and no handler reads it.
	Probe bool
}

type pingResp struct {
	Node NodeInfo
}

type findSuccReq struct {
	K    ring.ID
	Hops int

	// Digit-routing cursor (wire v2 fields; DESIGN.md §14). On CAM-Koorde
	// rings a lookup carries Koorde's (k, kshift, i) state: Img is the
	// imaginary identifier i and Left counts how many of K's top bits
	// remain to be shifted in (the remaining digits of kshift). HasCursor
	// distinguishes a cursor at any state — including exhausted — from a
	// greedy request. Requests without one route greedily: every CAM-Chord
	// lookup, and greedyRoute's own onward hops, which drop the cursor so
	// a lookup that fell back to greedy stays greedy. An entry-point request
	// (Hops == 0) without a cursor gets one on a CAM-Koorde node.
	HasCursor bool
	Img       ring.ID
	Left      uint32
}

type findSuccResp struct {
	Node NodeInfo
	Hops int // total forwarding hops spent resolving the lookup
}

type neighborsReq struct {
	// Full is reserved: no sender sets it and no handler reads it.
	Full bool
}

type neighborsResp struct {
	Pred  *NodeInfo // nil if unknown
	Succs []NodeInfo
}

type notifyReq struct {
	Candidate NodeInfo
}

type notifyResp struct {
	// Accepted reports whether the receiver adopted the candidate as its
	// predecessor.
	Accepted bool
}

type multicastReq struct {
	MsgID   string
	Source  NodeInfo
	Payload []byte
	K       ring.ID // the receiver must deliver to every member in (receiver, K]
	Hops    int
	// Repair marks an orphan-segment handoff: the receiver must re-spread
	// (receiver, K] even if it has already seen the message, because the
	// segment's original child died before covering it.
	Repair bool

	// blob, when set, owns the bytes Payload views (len(Payload) must equal
	// the blob view's length and the contents must match — the scatter-gather
	// writer sends the blob's bytes under Payload's framing). Decoded
	// requests hold one reference, released by the transport after the
	// handler returns; re-sends share the same blob so a relay never
	// re-encodes the payload. Unexported: it is never encoded itself.
	blob *transport.Blob
}

type multicastResp struct {
	// Duplicate reports that the receiver had already seen the message.
	Duplicate bool
}

type offerReq struct {
	MsgID string
}

type offerResp struct {
	Want bool
}

type floodReq struct {
	MsgID   string
	Source  NodeInfo
	Payload []byte
	Hops    int

	// blob mirrors multicastReq.blob: the shared owner of Payload's bytes.
	blob *transport.Blob
}

type floodResp struct {
	// Duplicate reports that the receiver had already seen the message.
	Duplicate bool
}

type leavingReq struct {
	Departing NodeInfo
	// NewPred is set when the departing node was the receiver's successor's
	// predecessor... kept simple: the departing node hands each ring
	// neighbor the node on its other side.
	NewPred *NodeInfo // offered replacement predecessor (sent to the successor)
	NewSucc *NodeInfo // offered replacement successor (sent to the predecessor)
}

type leavingResp struct {
	// Acked confirms the splice was processed.
	Acked bool
}

type appReq struct {
	Payload []byte
}

type appResp struct {
	Payload []byte
}
