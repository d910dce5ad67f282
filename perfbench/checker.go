package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// indexBytes is the length of the message index every payload starts with.
// The checker keys on this index rather than on Delivery.MsgID, whose type
// is the program's to change.
const indexBytes = 8

// checker verifies exactly-once delivery of a run's multicasts and stamps
// each message's last delivery. OnDeliver calls take no lock: a delivery
// sets one bit of its member's bitset and bumps two per-message atomics.
type checker struct {
	members int
	msgs    int
	words   int // bitset words per member
	base    time.Time

	bits  []atomic.Uint64 // member-major: bits[m*words + i/64]
	count []atomic.Int32  // deliveries of message i
	last  []atomic.Int64  // latest delivery of message i, ns since base
	bad   []atomic.Bool   // message i saw a duplicate or an error

	duplicates atomic.Int64
	strays     atomic.Int64 // deliveries of an index outside [0, msgs)
}

func newChecker(members, msgs int) *checker {
	words := (msgs + 63) / 64
	return &checker{
		members: members,
		msgs:    msgs,
		words:   words,
		base:    time.Now(),
		bits:    make([]atomic.Uint64, members*words),
		count:   make([]atomic.Int32, msgs),
		last:    make([]atomic.Int64, msgs),
		bad:     make([]atomic.Bool, msgs),
	}
}

// now is the checker's clock: monotonic nanoseconds since its creation.
func (c *checker) now() int64 { return int64(time.Since(c.base)) }

// stamp writes message i's index into the head of payload.
func stamp(payload []byte, i int) {
	binary.LittleEndian.PutUint64(payload, uint64(i))
}

// deliver records that member m received payload at time t.
func (c *checker) deliver(m int, payload []byte, t int64) {
	if len(payload) < indexBytes {
		c.strays.Add(1)
		return
	}
	i := binary.LittleEndian.Uint64(payload)
	if i >= uint64(c.msgs) {
		c.strays.Add(1)
		return
	}
	w := &c.bits[m*c.words+int(i/64)]
	bit := uint64(1) << (i % 64)
	for {
		old := w.Load()
		if old&bit != 0 {
			c.duplicates.Add(1)
			c.bad[i].Store(true)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	c.count[i].Add(1)
	for {
		old := c.last[i].Load()
		if t <= old || c.last[i].CompareAndSwap(old, t) {
			return
		}
	}
}

// fail marks message i failed, as when its Multicast returned an error.
func (c *checker) fail(i int) { c.bad[i].Store(true) }

// delivered is how many members have message i.
func (c *checker) delivered(i int) int { return int(c.count[i].Load()) }

// complete reports whether every member has message i.
func (c *checker) complete(i int) bool { return int(c.count[i].Load()) == c.members }

// awaitComplete waits up to limit for message i to reach every member.
// Multicast returns once its tree completes, so this returns at once
// unless a delivery went missing.
func (c *checker) awaitComplete(i int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for !c.complete(i) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// lastDelivery returns the time of message i's latest delivery.
func (c *checker) lastDelivery(i int) int64 { return c.last[i].Load() }

// verdict is the checker's account of messages [0, sent).
type verdict struct {
	Sent       int
	Failed     int   // messages with a duplicate, an error or a missing member
	Distinct   int64 // distinct (message, member) deliveries
	Duplicates int64
	Strays     int64
	Gaps       []gap // the first few (member, message) pairs never delivered
}

type gap struct{ Member, Msg int }

const maxGaps = 8

// Ratio is distinct deliveries over messages × members.
func (v verdict) Ratio(members int) float64 {
	if v.Sent == 0 {
		return 0
	}
	return float64(v.Distinct) / (float64(v.Sent) * float64(members))
}

// OK reports exactly-once delivery of every message sent.
func (v verdict) OK(members int) bool {
	return v.Sent > 0 && v.Failed == 0 && v.Duplicates == 0 && v.Strays == 0 &&
		v.Distinct == int64(v.Sent)*int64(members)
}

func (v verdict) String() string {
	return fmt.Sprintf("sent=%d failed=%d distinct=%d duplicates=%d strays=%d gaps=%v",
		v.Sent, v.Failed, v.Distinct, v.Duplicates, v.Strays, v.Gaps)
}

// verify checks messages [0, sent) once traffic has stopped.
func (c *checker) verify(sent int) verdict {
	v := verdict{Sent: sent, Duplicates: c.duplicates.Load(), Strays: c.strays.Load()}
	for i := 0; i < sent; i++ {
		if c.bad[i].Load() || !c.complete(i) {
			v.Failed++
		}
	}
	for m := 0; m < c.members; m++ {
		row := c.bits[m*c.words : (m+1)*c.words]
		for wi := range row {
			word := row[wi].Load()
			lo := wi * 64
			if lo >= sent {
				break
			}
			mask := ^uint64(0)
			if hi := sent - lo; hi < 64 {
				mask = uint64(1)<<hi - 1
			}
			word &= mask
			v.Distinct += int64(bits.OnesCount64(word))
			for missing := mask &^ word; missing != 0 && len(v.Gaps) < maxGaps; missing &= missing - 1 {
				v.Gaps = append(v.Gaps, gap{Member: m, Msg: lo + bits.TrailingZeros64(missing)})
			}
		}
	}
	return v
}
