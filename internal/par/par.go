// Package par is the deterministic worker-pool substrate shared by the
// campaign generator, the ensemble trainers and the batch predictors.
//
// Every helper here preserves a simple contract: splitting work across
// goroutines must not change *what* is computed, only *when*. Callers
// achieve that by making each task i write only i-indexed state (its own
// slice element, its own pre-split rng stream) and by performing any
// order-sensitive reduction serially afterwards. Under that discipline a
// run with w=8 is bit-identical to w=1 — the property the repository's
// byte-identical checkpoint/resume and model-artifact contracts depend
// on.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is used as given, anything
// else means one worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Bound caps a worker count so no worker would receive fewer than min
// tasks out of n; it never returns less than 1. Use it to avoid spawning
// goroutines for row loops too small to amortise the handoff.
func Bound(w, n, min int) int {
	if min < 1 {
		min = 1
	}
	if maxW := n / min; w > maxW {
		w = maxW
	}
	if w < 1 {
		return 1
	}
	return w
}

// Do runs fn(i) for every i in [0, n) on up to w goroutines and waits
// for all of them. Tasks are dealt in index order to whichever worker is
// free next, so a slow task never holds back one queued behind it while
// another worker idles; with w <= 1 (or n <= 1) everything runs inline
// on the caller's goroutine, in index order.
func Do(w, n int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	spawn(w, func(int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	})
}

// Chunks partitions [0, n) into at most w contiguous [lo, hi) spans, runs
// fn on each span (concurrently when w > 1), and waits for all spans.
// Spans differ in length by at most one and cover [0, n) exactly once.
func Chunks(w, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	// Deal ceil/floor-sized spans so lengths differ by at most one.
	base, rem := n/w, n%w
	spawn(w, func(k int) {
		lo := k*base + min(k, rem)
		hi := lo + base
		if k < rem {
			hi++
		}
		fn(lo, hi)
	})
}

// spawn runs fn(k) for every k in [0, w) on its own goroutine and waits
// for all of them. A panic in any of them is re-raised on the caller's
// goroutine once every one has returned (the lowest k's, when several
// panic), so a caller that recovers panics still contains one raised on
// a worker.
func spawn(w int, fn func(k int)) {
	panics := make([]any, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			fn(k)
		}(k)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
