package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForwardPoolSaturation nests fan-outs three deep, 512 leaf tasks in
// all, so the process-wide pool runs out of workers and submissions fall
// back to running inline on the submitting goroutine. Every task index must
// run exactly once, fanOut must return, and the pool's workers must exit
// once a whole fwdIdleExit period passes in which they ran nothing.
func TestForwardPoolSaturation(t *testing.T) {
	const width = 8
	n := &Node{cfg: Config{ForwardParallel: 64}}
	capacity := fwdPool.capacity()
	var (
		runs [width * width * width]atomic.Int32
		peak atomic.Int32
	)
	// Leaves hold their lane briefly so the pool fills up before any
	// worker frees; the pool never holds more than capacity workers, so
	// with 512 leaves most submissions find it full.
	leaf := func(i int) {
		for w := fwdPool.workers.Load(); ; {
			p := peak.Load()
			if w <= p || peak.CompareAndSwap(p, w) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		runs[i].Add(1)
	}
	fan := func(task func(int)) {
		var wg sync.WaitGroup
		n.fanOut(width, runFunc(task), &wg)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fan(func(a int) {
			fan(func(b int) {
				fan(func(c int) { leaf((a*width+b)*width + c) })
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested fanOut on a saturated pool did not return")
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times, want exactly once", i, got)
		}
	}
	if got := peak.Load(); got != capacity {
		t.Errorf("pool peaked at %d workers, want it saturated at its capacity %d", got, capacity)
	}

	deadline := time.Now().Add(fwdIdleExit + 5*time.Second)
	for fwdPool.workers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers still live %v after the last task", fwdPool.workers.Load(), fwdIdleExit+5*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runFunc adapts a function to the fan-out's runner.
type runFunc func(i int)

func (f runFunc) run(i int) { f(i) }
