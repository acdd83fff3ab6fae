// Package par is the deterministic worker-pool substrate shared by the
// campaign generator, the chain and forest trainers and the fleet's
// fan-outs.
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

// Do runs fn(i) for every i in [0, n) on up to w goroutines and waits
// for all of them. Tasks are dealt in index order to whichever worker is
// free next, so a slow task never holds back one queued behind it while
// another worker idles; with w <= 1 (or n <= 1) everything runs inline
// on the caller's goroutine, in index order. A panic on a worker is
// re-raised on the caller's goroutine once every worker has returned
// (the lowest worker's, when several panic), so a caller that recovers
// panics still contains one raised on a worker.
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
	panics := make([]any, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}(k)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
