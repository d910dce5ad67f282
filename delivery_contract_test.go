package camcast

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"camcast/internal/transport"
)

// TestDeliveryPayloadBorrowContract enforces the copy-on-deliver contract on
// Message.Payload over real sockets: the slice handed to OnDeliver aliases a
// pooled receive buffer on the zero-copy path, so a subscriber that copies
// during the callback keeps intact data, while one that retains the raw
// slice reads recycled garbage afterwards. Blob poisoning makes the second
// half deterministic: the pool scribbles every released buffer, so a
// retained view cannot accidentally stay intact and mask the violation.
func TestDeliveryPayloadBorrowContract(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets; skipped in -short runs")
	}
	prev := transport.PoisonBlobsOnRelease(true)
	defer transport.PoisonBlobsOnRelease(prev)

	payload := bytes.Repeat([]byte{0xA5}, 2<<10)
	copy(payload, "borrow contract")

	var (
		mu       sync.Mutex
		copies   = map[string][]byte{} // correct subscribers: cloned in callback
		retained []byte                // violating subscriber: raw slice kept
	)
	opts := func(self *string, violate bool) Options {
		return Options{
			Capacity:       4,
			Stabilize:      -1,
			Fix:            -1,
			ForwardTimeout: 2 * time.Second,
			RPCTimeout:     2 * time.Second,
			OnDeliver: func(m Message) {
				mu.Lock()
				defer mu.Unlock()
				copies[*self] = bytes.Clone(m.Payload) // the contract: copy to retain
				if violate {
					retained = m.Payload // the bug this test catches
				}
			},
		}
	}

	var members []*Member
	for i := 0; i < 4; i++ {
		self := new(string)
		via := ""
		if i > 0 {
			via = members[0].Addr()
		}
		m, err := ListenTCP("127.0.0.1:0", via, opts(self, i == 2))
		if err != nil {
			t.Fatal(err)
		}
		*self = m.Addr()
		members = append(members, m)
		for r := 0; r < 3; r++ {
			for _, mm := range members {
				mm.StabilizeOnce()
			}
		}
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for r := 0; r < 3; r++ {
		for _, m := range members {
			m.StabilizeOnce()
			m.FixAll()
		}
	}

	// Multicast from member 0, so the violating member 2 receives its copy
	// through a pooled TCP frame (the origin's self-delivery hands the
	// caller's own slice, which the pool never touches).
	if _, err := members[0].MulticastContext(context.Background(), payload); err != nil {
		t.Fatal(err)
	}

	// Close every member before inspecting: TCP close joins the transport
	// goroutines, so all blob releases (and the poison scribble) are ordered
	// before these reads.
	for _, m := range members {
		m.Close()
	}

	for addr, c := range copies {
		if !bytes.Equal(c, payload) {
			t.Errorf("%s: payload copied during OnDeliver was corrupted", addr)
		}
	}
	if retained == nil {
		t.Fatal("violating subscriber never ran")
	}
	if bytes.Equal(retained, payload) {
		t.Error("payload slice retained past OnDeliver stayed intact; " +
			"the borrow contract is no longer enforced (or the buffer was never pooled)")
	}
}
