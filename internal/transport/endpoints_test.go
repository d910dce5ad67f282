package transport

import (
	"fmt"
	"testing"
)

// TestEndpointTableGrows registers enough addresses to force several
// doublings and checks every lookup, the shard bound, replacement and
// removal along the way.
func TestEndpointTableGrows(t *testing.T) {
	tbl := newEndpointTable()
	const total = 5000
	handlers := make([]Handler, total)
	for i := range handlers {
		i := i
		handlers[i] = func(string, string, any) (any, error) { return i, nil }
		tbl.put(fmt.Sprint("m", i), handlers[i])
	}
	if shards := len(tbl.shards.Load().shards); tbl.n > maxShardLen*shards {
		t.Fatalf("%d entries in %d shards, over %d per shard", tbl.n, shards, maxShardLen)
	}
	check := func(i int, want bool) {
		t.Helper()
		h, ok := tbl.lookup(fmt.Sprint("m", i))
		if ok != want {
			t.Fatalf("lookup m%d: found = %t, want %t", i, ok, want)
		}
		if ok {
			if got, _ := h("", "", nil); got != i {
				t.Fatalf("lookup m%d returned the handler of m%v", i, got)
			}
		}
	}
	for i := 0; i < total; i++ {
		check(i, true)
	}
	tbl.put("m0", handlers[0]) // replacement does not count twice
	for i := 0; i < total; i += 2 {
		tbl.remove(fmt.Sprint("m", i))
	}
	tbl.remove("never-registered")
	if tbl.n != total/2 {
		t.Fatalf("n = %d after removing half, want %d", tbl.n, total/2)
	}
	for i := 0; i < total; i++ {
		check(i, i%2 == 1)
	}
}

// TestEmptyGroupIsDropped checks that a group whose last endpoint leaves
// no longer holds a table, so a later registration starts a fresh one.
func TestEmptyGroupIsDropped(t *testing.T) {
	n := NewNetwork(1)
	n.RegisterGroup(7, "a", echoHandler(t))
	n.RegisterGroup(7, "b", echoHandler(t))
	n.UnregisterGroup(7, "a")
	if _, ok := (*n.groups.Load())[7]; !ok {
		t.Fatal("group 7 dropped while b is still registered")
	}
	n.UnregisterGroup(7, "b")
	if _, ok := (*n.groups.Load())[7]; ok {
		t.Fatal("group 7 kept after its last endpoint left")
	}
	n.UnregisterGroup(9, "x") // an unknown group is a no-op
	n.RegisterGroup(7, "a", echoHandler(t))
	if _, ok := n.endpoint(7, "a"); !ok {
		t.Fatal("re-registered endpoint not found")
	}
}
