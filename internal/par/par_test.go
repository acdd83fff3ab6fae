package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		if got := Workers(n); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

func TestDoCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			Do(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestDoDealsToFreeWorker: a slow task must not hold back the tasks
// after it while another worker is free. Task 0 blocks until tasks 1–3
// have all run; with two workers that finishes only if the free worker
// takes every later task in turn (contiguous dealing would queue task 1
// behind task 0).
func TestDoDealsToFreeWorker(t *testing.T) {
	var done atomic.Int32
	released := make(chan struct{})
	timedOut := false
	Do(2, 4, func(i int) {
		if i != 0 {
			if done.Add(1) == 3 {
				close(released)
			}
			return
		}
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			timedOut = true
		}
	})
	if timedOut {
		t.Fatal("task 0 held back the tasks after it")
	}
}

// TestWorkerPanicReachesCaller: a panic on a worker goroutine is
// re-raised on the caller's once every worker has returned, so the
// caller can recover it.
func TestWorkerPanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Do(3, 9, func(i int) {
		if i == 4 {
			panic("boom")
		}
	})
}
