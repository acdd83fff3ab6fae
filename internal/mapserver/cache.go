package mapserver

import (
	"container/list"
	"sync"

	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/wire"
)

// The prediction cache memoises /predict answers keyed on the quantized
// query (engine.Key: map cell × speed bucket × compass sector × which
// optional sensors the query carried — the same quantization the fleet
// router partitions on, see internal/engine/key.go).
//
// Concurrency model: an LRU (mutex-guarded map + intrusive list) whose
// entries are filled exactly once. The first goroutine to miss a key
// becomes its leader and computes the prediction outside the lock;
// followers arriving meanwhile find the pending entry and block on its
// ready channel (singleflight — one model walk per key no matter how
// many UEs ask at once). The close of ready happens-after the leader's
// writes, so followers read the response race-free.
//
// Invalidation is wholesale and atomic: the cache lives next to the
// serving chain under the Server's lock, and every model swap
// (SetChain / ReloadModelFile) installs a fresh empty cache, so a
// response computed by an old model can never be served after the swap.
//
// The cache holds no counters of its own. getOrCompute reports what
// happened as a cacheOutcome and the handler — the single owner of the
// serving counters — records it; only the two events the handler cannot
// see (LRU evictions, leader-abandoned entries) surface through the
// onEvict/onAbandon hooks.

// predKey is the quantized query identity, owned by internal/engine so
// the cache key and the fleet partition key can never drift apart.
type predKey = engine.Key

// bearingSectors mirrors the engine's compass quantization for the edge
// tests in cache_test.go.
const bearingSectors = engine.BearingSectors

// quantizeKey buckets one query (see engine.Quantize).
func quantizeKey(px geo.Pixel, speed, bearing *float64) predKey {
	return engine.Quantize(px, speed, bearing)
}

// cacheOutcome says how getOrCompute answered, so the handler can keep
// the counting identity responses = Σ tiers_served + hits + uncached
// exact: a miss is the one case where the handler also published a
// model walk; a hit served without one; uncached recomputed behind an
// abandoned entry; invalid produced a value with no JSON encoding.
type cacheOutcome uint8

const (
	outcomeHit cacheOutcome = iota
	outcomeMiss
	outcomeUncached
	outcomeInvalid
)

func (o cacheOutcome) String() string {
	switch o {
	case outcomeHit:
		return "hit"
	case outcomeMiss:
		return "miss"
	case outcomeUncached:
		return "uncached"
	default:
		return "invalid"
	}
}

// cacheEntry is one memoised prediction. One model walk fills both wire
// forms — the interval-off body (bit-identical to the pre-interval
// format) and the interval body — so a key serves either negotiation
// from the same entry and the cache stays keyed on the quantized query
// alone. ready is closed by the leader after res/body/ibody are
// written; a nil body after ready means the leader failed mid-compute
// (it panicked, or produced a non-finite answer) and the reader must
// compute for itself.
type cacheEntry struct {
	ready chan struct{}
	res   wire.Result
	body  []byte // marshalled point JSON wire form, newline-terminated
	ibody []byte // marshalled interval JSON wire form, newline-terminated
}

type lruItem struct {
	key predKey
	e   *cacheEntry
}

// predCache is the LRU + singleflight store. One instance serves
// exactly one model generation.
type predCache struct {
	cap       int
	onEvict   func() // LRU eviction (may be nil)
	onAbandon func() // leader abandoned a pending entry (may be nil)

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[predKey]*list.Element
}

func newPredCache(capacity int, onEvict, onAbandon func()) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{
		cap:       capacity,
		onEvict:   onEvict,
		onAbandon: onAbandon,
		ll:        list.New(),
		items:     make(map[predKey]*list.Element, capacity),
	}
}

// len reports the current entry count (tests and /healthz).
func (c *predCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// dropEntry removes key if it still maps to el (the leader's own entry).
func (c *predCache) dropEntry(key predKey, el *list.Element) {
	c.mu.Lock()
	if cur, ok := c.items[key]; ok && cur == el {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.mu.Unlock()
}

// computer produces one prediction for a cache miss. The hot path
// passes the handler's pooled predictCall so a request allocates no
// per-call closure.
type computer interface {
	computePredict() wire.Result
}

// run returns the answer and wire body for key, computing and inserting
// it (once, whatever the concurrency) on a miss. wantIval selects which
// of the entry's two bodies is returned; the leader renders both, so the
// flavor a key was first asked in never decides what later requests can
// negotiate. A nil body (outcomeInvalid) means the computed answer is
// not finite and must not be served.
func (c *predCache) run(key predKey, comp computer, wantIval bool) (wire.Result, []byte, cacheOutcome) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruItem).e
		c.mu.Unlock()
		<-e.ready
		if e.body != nil {
			if wantIval {
				return e.res, e.ibody, outcomeHit
			}
			return e.res, e.body, outcomeHit
		}
		// The leader abandoned the entry; answer uncached.
		res := comp.computePredict()
		body := marshalPredict(res, wantIval)
		if body == nil {
			return res, nil, outcomeInvalid
		}
		return res, body, outcomeUncached
	}
	e := &cacheEntry{ready: make(chan struct{})}
	el := c.ll.PushFront(&lruItem{key: key, e: e})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
	c.mu.Unlock()

	done := false
	defer func() {
		if !done {
			// compute panicked: drop the entry so followers and future
			// requests recompute, and unblock anyone already waiting.
			c.dropEntry(key, el)
			close(e.ready)
			if c.onAbandon != nil {
				c.onAbandon()
			}
		}
	}()
	res := comp.computePredict()
	// One rule (wire.Result.Finite) decides both flavors, so the two
	// bodies are nil together.
	body := marshalPredict(res, false)
	ibody := marshalPredict(res, true)
	done = true
	if body == nil {
		// Non-finite answer: never publish it. Drop the entry so the key
		// stays computable, unblock waiters (they recompute for
		// themselves), and report the abandonment.
		c.dropEntry(key, el)
		close(e.ready)
		if c.onAbandon != nil {
			c.onAbandon()
		}
		return res, nil, outcomeInvalid
	}
	e.res = res
	e.body = body
	e.ibody = ibody
	close(e.ready)
	if wantIval {
		return e.res, e.ibody, outcomeMiss
	}
	return e.res, e.body, outcomeMiss
}

// marshalPredict renders one /predict body in the negotiated flavor
// exactly as json.Encoder would (trailing newline included), so cached
// and uncached responses are byte-identical. Returns nil — never
// panics — when the answer is not finite (wire.Result.Finite), whichever
// flavor was asked for; the caller turns that into a clean 500. Each
// body gets a fresh buffer sized for its flavor (128 B point, 160 B
// interval): the cache memoises it, so it must own its bytes, and a hit
// never pays the encoding again.
func marshalPredict(res wire.Result, ival bool) []byte {
	if !res.Finite() {
		return nil
	}
	size := 128
	if ival {
		size = 160
	}
	b := appendPredict(make([]byte, 0, size), res, ival)
	return append(b, '\n')
}
