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

func TestBound(t *testing.T) {
	cases := []struct{ w, n, min, want int }{
		{8, 1000, 100, 8}, // enough work for every worker
		{8, 1000, 200, 5}, // capped so each worker gets >= min
		{8, 100, 200, 1},  // less than one chunk of work
		{8, 0, 100, 1},    // no work still yields one worker
		{0, 1000, 100, 1}, // degenerate caller ask
		{8, 1000, 0, 8},   // min floors at 1
		{4, 4, 1, 4},      // exact fit
	}
	for _, c := range cases {
		if got := Bound(c.w, c.n, c.min); got != c.want {
			t.Fatalf("Bound(%d,%d,%d) = %d, want %d", c.w, c.n, c.min, got, c.want)
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

func TestChunksPartition(t *testing.T) {
	for _, w := range []int{1, 2, 5, 16} {
		for _, n := range []int{1, 4, 17, 100} {
			var total int64
			var spans int64
			var maxLen, minLen atomic.Int64
			minLen.Store(int64(n) + 1)
			Chunks(w, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("w=%d n=%d: bad span [%d,%d)", w, n, lo, hi)
				}
				atomic.AddInt64(&total, int64(hi-lo))
				atomic.AddInt64(&spans, 1)
				l := int64(hi - lo)
				for {
					cur := maxLen.Load()
					if l <= cur || maxLen.CompareAndSwap(cur, l) {
						break
					}
				}
				for {
					cur := minLen.Load()
					if l >= cur || minLen.CompareAndSwap(cur, l) {
						break
					}
				}
			})
			if total != int64(n) {
				t.Fatalf("w=%d n=%d: spans cover %d elements", w, n, total)
			}
			if want := int64(min(w, n)); spans != want {
				t.Fatalf("w=%d n=%d: %d spans, want %d", w, n, spans, want)
			}
			if maxLen.Load()-minLen.Load() > 1 {
				t.Fatalf("w=%d n=%d: span lengths differ by more than one (%d vs %d)",
					w, n, minLen.Load(), maxLen.Load())
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
	for name, run := range map[string]func(){
		"Do": func() {
			Do(3, 9, func(i int) {
				if i == 4 {
					panic("boom")
				}
			})
		},
		"Chunks": func() {
			Chunks(3, 9, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		},
	} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("%s: recovered %v, want boom", name, r)
				}
			}()
			run()
		}()
	}
}
