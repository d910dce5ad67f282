package runtime

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"

	"camcast/internal/obsv"
	"camcast/internal/ring"
)

// BulkOptions parameterizes BulkInstall.
type BulkOptions struct {
	// Parallelism is the number of goroutines installing tables (contiguous
	// chunks of the sorted membership each). Default GOMAXPROCS; 1 installs
	// serially in sorted-identifier order, which the replay engine uses for
	// deterministic construction.
	Parallelism int
}

// BulkInstall builds a correct ring directly from known membership: given
// every node of a fresh group up front, it sorts their identifiers once and
// installs predecessor, successor list, and every routing-table slot from
// the sorted array — no RPCs, no stabilize-paced convergence. On a complete
// sorted membership, FindSuccessor(k) is by definition the first identifier
// >= k, so a binary search per slot produces exactly the tables an
// incremental ramp converges to (the equivalence test in bulk_test.go holds
// both modes to that, byte for byte).
//
// This is assisted offline construction in the spirit of bounded-degree
// overlay builders: expensive iterative convergence is reserved for runtime
// churn, where membership is genuinely unknown. It is only safe when the
// node set given IS the whole group — every node must be fresh (never
// started, never stopped) and no other member may already exist, because
// installed state is derived purely from this snapshot. After BulkInstall
// returns, every node is started and registered on its network, ready for
// Scheduler.Add; joins and leaves from that point use the normal
// incremental paths.
func BulkInstall(nodes []*Node, opts BulkOptions) error {
	m := len(nodes)
	if m == 0 {
		return fmt.Errorf("runtime: BulkInstall of empty membership")
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = goruntime.GOMAXPROCS(0)
	}

	mode, bits := nodes[0].cfg.Mode, nodes[0].space.Bits()
	for _, n := range nodes {
		n.mu.Lock()
		bad := n.started || n.stopped
		n.mu.Unlock()
		if bad {
			return fmt.Errorf("runtime: BulkInstall: node %s already started or stopped", n.self.Addr)
		}
		if n.cfg.Mode != mode || n.space.Bits() != bits {
			return fmt.Errorf("runtime: BulkInstall: node %s mode/space differs from %s",
				n.self.Addr, nodes[0].self.Addr)
		}
	}

	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self.ID < sorted[j].self.ID })
	ids := make([]ring.ID, m)
	infos := make([]NodeInfo, m)
	for i, n := range sorted {
		if i > 0 && ids[i-1] == n.self.ID {
			return fmt.Errorf("runtime: BulkInstall: identifier collision %d between %s and %s",
				n.self.ID, infos[i-1].Addr, n.self.Addr)
		}
		ids[i] = n.self.ID
		infos[i] = n.self
	}

	// succOf(k): the first member with identifier >= k, wrapping past the
	// top of the ring to sorted[0] — FindSuccessor on a converged ring.
	succOf := func(k ring.ID) NodeInfo {
		i := sort.Search(m, func(j int) bool { return ids[j] >= k })
		if i == m {
			i = 0
		}
		return infos[i]
	}

	install := func(i int) {
		n := sorted[i]
		n.mu.Lock()
		n.started = true
		n.setPredLocked(infos[(i-1+m)%m])
		if m == 1 {
			n.setSuccSelfLocked()
		} else {
			k := succListLen
			if k > m-1 {
				k = m - 1
			}
			list := make([]NodeInfo, k)
			for j := 0; j < k; j++ {
				list[j] = infos[(i+1+j)%m]
			}
			n.setSuccsLocked(list)
		}
		for s := 0; s < n.spec.len(); s++ {
			n.setSlotLocked(s, succOf(n.spec.id(n.space, n.self.ID, s)))
		}
		n.noteTopologyChange()
		n.mu.Unlock()
	}

	if opts.Parallelism == 1 || m < 2*opts.Parallelism {
		for i := range sorted {
			install(i)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (m + opts.Parallelism - 1) / opts.Parallelism
		for lo := 0; lo < m; lo += chunk {
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					install(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	// Register serially in sorted order so trace output — which replay
	// compares byte for byte — is deterministic.
	for _, n := range sorted {
		n.net.Register(n.self.Addr, n.handleRPC)
		n.emitf(obsv.KindJoin, "bulk install id=%d", n.self.ID)
	}
	return nil
}
