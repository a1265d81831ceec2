package server

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Factorization cache: the economic heart of kpd. kp.Factor is the whole
// Theorem 4 front end — preconditioning, Krylov sequence, characteristic
// polynomial — while Factored.Solve replays only the backsolve, so a
// digest-keyed LRU of Factored handles turns every repeat matrix into a
// cheap backsolve (observable as batch/backsolve spans with no new
// batch/krylov span, and as server.cache.hits on /metrics).
//
// Handles are shared, not checked out: kp.Factorization is safe for
// concurrent use, so any number of in-flight requests may hold the same
// entry while it is (or even after it has been) evicted — eviction only
// drops the cache's reference.

var (
	cacheHits      = obs.NewCounter("server.cache.hits")
	cacheMisses    = obs.NewCounter("server.cache.misses")
	cacheEvictions = obs.NewCounter("server.cache.evictions")
	cacheSize      = obs.NewGauge("server.cache.size")
)

// Cache is a bounded LRU of reusable factorizations keyed by canonical
// matrix digest (matrix.DigestString), with duplicate-factor suppression:
// concurrent misses on the same key run the expensive Factor once and share
// the result. Safe for concurrent use.
type Cache[E any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *cacheEntry[E]
	byKey    map[string]*list.Element
	inflight map[string]*flight[E]
}

type cacheEntry[E any] struct {
	key string
	fa  *core.Factored[E]
}

// flight is one in-progress Factor shared by every concurrent miss on its
// key.
type flight[E any] struct {
	done chan struct{} // closed when fa/err are final
	fa   *core.Factored[E]
	err  error
}

// NewCache returns an LRU holding at most capacity factorizations
// (capacity must be positive).
func NewCache[E any](capacity int) *Cache[E] {
	if capacity <= 0 {
		panic("server: cache capacity must be positive")
	}
	return &Cache[E]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[E]),
	}
}

// Len returns the number of cached factorizations.
func (c *Cache[E]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the cached factorization for key, if present, marking it
// most recently used.
func (c *Cache[E]) Get(key string) (*core.Factored[E], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry[E]).fa, true
	}
	return nil, false
}

// GetOrFactor returns the factorization for key, running factor on a miss.
// The boolean reports a cache hit. Concurrent misses on the same key are
// coalesced: one caller factors, the rest wait for its result (or for
// their own ctx). A failed factor is not cached — the waiters receive the
// leader's error and the next request retries fresh, so a transient
// failure (an unlucky randomization burst, a canceled leader) cannot
// poison the key.
func (c *Cache[E]) GetOrFactor(ctx context.Context, key string, factor func() (*core.Factored[E], error)) (*core.Factored[E], bool, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		fa := el.Value.(*cacheEntry[E]).fa
		c.mu.Unlock()
		cacheHits.Inc()
		return fa, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			// The leader failed with *its* deadline or randomness; report
			// the miss against this request rather than retrying here (the
			// caller owns the retry policy).
			return nil, false, fl.err
		}
		cacheHits.Inc()
		return fl.fa, true, nil
	}
	fl := &flight[E]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	cacheMisses.Inc()
	fl.fa, fl.err = factor()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insert(key, fl.fa)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.fa, false, fl.err
}

// Put inserts (or refreshes) a factorization under key.
func (c *Cache[E]) Put(key string, fa *core.Factored[E]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, fa)
}

// insert adds key→fa at the front and evicts past capacity. Caller holds mu.
func (c *Cache[E]) insert(key string, fa *core.Factored[E]) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry[E]).fa = fa
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry[E]{key: key, fa: fa})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry[E]).key)
		cacheEvictions.Inc()
	}
	cacheSize.Set(int64(c.ll.Len()))
}
