package transport

import (
	"hash/maphash"
	"sync/atomic"
)

// maxShardLen bounds the mean number of addresses per endpoint shard; see
// endpointTable.
const maxShardLen = 8

// endpointTable is one group's address -> handler table, read by every
// in-process call without a lock. Addresses are spread over shards by a
// hash; each shard is an immutable slice, and a registration publishes a
// changed copy of the one shard it touches. A call that loads the shard
// after Register or Unregister returned therefore sees the change, and a
// call never sees a shard being written.
//
// The shard count follows from the cost it bounds: a registration copies
// one shard, and a lookup scans one, so both cost the shard's length. The
// table doubles its shard count whenever the mean length would pass
// maxShardLen, moving every entry once per doubling: O(1) amortised per
// registration at any group size. At 4 000 members that is 512 shards of
// about 8 entries. A fixed count S would make the n-th registration copy
// n/S entries, which for a million members and S = 256 is 4 000 entries
// per registration.
//
// Writes happen only under Network.mu.
type endpointTable struct {
	seed   maphash.Seed // hashes addresses; fixed for the table's life
	shards atomic.Pointer[shardSet]
	n      int // registered addresses
}

// shardSet is one generation of a table's shards: a growing table
// replaces the set whole, and between growths single shards are replaced.
type shardSet struct {
	mask   uint64
	shards []atomic.Pointer[[]endpoint] // nil: an empty shard
}

// endpoint is one registration. The address's hash is kept so a lookup
// compares strings only on a hash match, and growth moves entries without
// hashing again.
type endpoint struct {
	hash uint64
	addr string
	h    Handler
}

func newEndpointTable() *endpointTable {
	t := &endpointTable{seed: maphash.MakeSeed()}
	t.shards.Store(&shardSet{shards: make([]atomic.Pointer[[]endpoint], 1)})
	return t
}

// lookup returns the handler registered at addr.
func (t *endpointTable) lookup(addr string) (Handler, bool) {
	hash := maphash.String(t.seed, addr)
	set := t.shards.Load()
	if shard := set.shards[hash&set.mask].Load(); shard != nil {
		if i := indexOf(*shard, hash, addr); i >= 0 {
			return (*shard)[i].h, true
		}
	}
	return nil, false
}

// put registers h at addr, replacing any previous handler.
func (t *endpointTable) put(addr string, h Handler) {
	hash := maphash.String(t.seed, addr)
	set := t.shards.Load()
	slot := &set.shards[hash&set.mask]
	var old []endpoint
	if shard := slot.Load(); shard != nil {
		old = *shard
	}
	next := make([]endpoint, len(old), len(old)+1)
	copy(next, old)
	i := indexOf(next, hash, addr)
	if i < 0 {
		next = append(next, endpoint{hash: hash, addr: addr})
		i = len(next) - 1
		t.n++
	}
	next[i].h = h
	slot.Store(&next)
	if t.n > maxShardLen*len(set.shards) {
		t.grow(set)
	}
}

// remove deletes addr's handler, if any.
func (t *endpointTable) remove(addr string) {
	hash := maphash.String(t.seed, addr)
	set := t.shards.Load()
	slot := &set.shards[hash&set.mask]
	shard := slot.Load()
	if shard == nil {
		return
	}
	i := indexOf(*shard, hash, addr)
	if i < 0 {
		return
	}
	t.n--
	if len(*shard) == 1 {
		slot.Store(nil)
		return
	}
	next := make([]endpoint, 0, len(*shard)-1)
	next = append(append(next, (*shard)[:i]...), (*shard)[i+1:]...)
	slot.Store(&next)
}

func indexOf(shard []endpoint, hash uint64, addr string) int {
	for i := range shard {
		if shard[i].hash == hash && shard[i].addr == addr {
			return i
		}
	}
	return -1
}

// grow publishes a shard set twice the size of set holding the same
// entries: old shard i splits into new shards i and i+len(set.shards), by
// the one more hash bit the wider mask reads.
func (t *endpointTable) grow(set *shardSet) {
	width := len(set.shards)
	next := &shardSet{
		mask:   uint64(2*width - 1),
		shards: make([]atomic.Pointer[[]endpoint], 2*width),
	}
	bit := uint64(width)
	for i := range set.shards {
		shard := set.shards[i].Load()
		if shard == nil {
			continue
		}
		high := 0
		for _, e := range *shard {
			if e.hash&bit != 0 {
				high++
			}
		}
		lo := make([]endpoint, 0, len(*shard)-high)
		hi := make([]endpoint, 0, high)
		for _, e := range *shard {
			if e.hash&bit != 0 {
				hi = append(hi, e)
			} else {
				lo = append(lo, e)
			}
		}
		if len(lo) > 0 {
			next.shards[i].Store(&lo)
		}
		if len(hi) > 0 {
			next.shards[i+width].Store(&hi)
		}
	}
	t.shards.Store(next)
}
