package server

import (
	"container/list"
	"context"
	"sync"

	"imtrans/internal/cas"
)

// cachedResult is one finished response body, ready to replay to any
// client that asks the same question.
type cachedResult struct {
	status      int
	body        []byte
	contentType string
}

// flight is one in-progress computation; followers block on done and read
// res/err afterwards.
type flight struct {
	done chan struct{}
	res  *cachedResult
	err  error
}

// resultCache is the daemon's request-level memo: an LRU of finished
// responses keyed by the canonical request identity (endpoint + program
// hash + configuration), with single-flight coalescing of identical
// in-flight requests layered in front. It sits above the process-wide
// capture cache — a hit here skips even the encode/replay work, not just
// the profiling simulation.
type resultCache struct {
	limit    int
	mu       sync.Mutex
	lru      *list.List               // front = most recently used
	idx      map[string]*list.Element // key -> lru element
	inflight map[string]*flight

	// store, when set, is the persistent tier under the LRU: the leader
	// reads resp/<key> through it before computing, and stores successful
	// results behind it asynchronously. A store error is a miss; a put is
	// fire-and-forget (flushTier waits for stragglers at shutdown).
	store  *cas.Store
	tierWG sync.WaitGroup
}

// lruEntry is what lru elements hold.
type lruEntry struct {
	key string
	res *cachedResult
}

func newResultCache(limit int) *resultCache {
	if limit < 1 {
		limit = 1
	}
	return &resultCache{
		limit:    limit,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// cacheOutcome reports how a do call was served.
type cacheOutcome int

const (
	cacheMiss    cacheOutcome = iota // ran fn
	cacheHit                         // replayed a stored result
	cacheShared                      // coalesced onto an identical in-flight request
	cacheTierHit                     // served from the persistent store under the LRU
)

// flushTier blocks until every write-behind put issued so far finishes.
func (c *resultCache) flushTier() { c.tierWG.Wait() }

// do returns the cached result for key, waits on an identical in-flight
// computation, or runs fn as the leader. Only 2xx results are stored;
// errors and non-2xx responses propagate to every coalesced waiter but
// poison nothing. A cancelled follower returns ctx.Err() while the leader
// keeps computing for the others.
func (c *resultCache) do(ctx context.Context, key string, fn func() (*cachedResult, error)) (*cachedResult, cacheOutcome, error) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.lru.MoveToFront(el)
		res := el.Value.(*lruEntry).res
		c.mu.Unlock()
		return res, cacheHit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.res, cacheShared, fl.err
		case <-ctx.Done():
			return nil, cacheShared, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	outcome := cacheMiss
	if c.store != nil {
		if body, terr := c.store.GetNamed("resp/" + key); terr == nil && len(body) > 0 {
			// The store verified the envelope CRC and content digest; the
			// body is a response stored for the identical request, by this
			// daemon or an earlier run over the same directory, replayed as
			// the 200 it was.
			fl.res = &cachedResult{status: 200, body: body}
			outcome = cacheTierHit
		}
	}
	if fl.res == nil {
		fl.res, fl.err = fn()
		if fl.err == nil && fl.res != nil && fl.res.status == 200 &&
			fl.res.contentType == "" && c.store != nil {
			body := fl.res.body
			c.tierWG.Add(1)
			go func() {
				defer c.tierWG.Done()
				c.store.PutNamed("resp/"+key, body)
			}()
		}
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && fl.res != nil && fl.res.status >= 200 && fl.res.status < 300 {
		c.insertLocked(key, fl.res)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.res, outcome, fl.err
}

// insertLocked stores a result, evicting from the cold end past the limit.
func (c *resultCache) insertLocked(key string, res *cachedResult) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*lruEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.idx[key] = c.lru.PushFront(&lruEntry{key: key, res: res})
	for c.lru.Len() > c.limit {
		cold := c.lru.Back()
		c.lru.Remove(cold)
		delete(c.idx, cold.Value.(*lruEntry).key)
	}
}

// len reports the number of stored results.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
