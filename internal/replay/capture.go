package replay

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"imtrans/internal/cfg"
)

// Key identifies a capture: a content hash of the program image plus any
// caller-supplied salt (benchmark identity and scale, for instance).
type Key [sha256.Size]byte

// ProgramKey hashes a program image and a salt into a cache key. Two
// programs with the same key are assumed to produce the same fetch stream,
// which holds whenever the run's memory setup is a deterministic function
// of the salted identity — the same contract MeasureProgram already
// imposes on its setup callback.
func ProgramKey(textBase uint32, text []uint32, dataBase uint32, data []byte, salt string) Key {
	h := sha256.New()
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], textBase)
	h.Write(word[:])
	for _, w := range text {
		binary.LittleEndian.PutUint32(word[:], w)
		h.Write(word[:])
	}
	binary.LittleEndian.PutUint32(word[:], dataBase)
	h.Write(word[:])
	h.Write(data)
	h.Write([]byte(salt))
	var k Key
	h.Sum(k[:0])
	return k
}

// Capture is everything one profiling run of a program yields — the
// compressed fetch trace and the execution profile — plus the stream
// statistics that do not depend on the encoding configuration (baseline
// bus, the bus-invert and dictionary comparators), derived from the
// folded trace after the run (MeasureBaseline for the baseline). Replaying
// a capture against an encoding reproduces MeasureProgram's output bit
// for bit without running the CPU again.
type Capture struct {
	Key   Key
	Base  uint32   // text base address
	Words []uint32 // original text image

	// Graph is the control-flow graph of the text image, built once at
	// capture time: it depends only on the image, so every configuration
	// replayed against the capture shares it instead of re-deriving it.
	Graph *cfg.Graph

	Trace        *Trace
	Profile      []uint64
	Instructions uint64

	BaselineTotal   uint64
	BaselinePerLine []uint64
	BusInvertTotal  uint64
	DictionaryTotal uint64
	DictionaryBits  int
}

// DefaultCacheLimit bounds the shared capture cache. Captures hold the
// full text image plus the compressed trace, so a long-lived sweep
// service measuring ever-new programs would otherwise grow without
// bound; 128 entries is far beyond any one grid's benchmark count.
const DefaultCacheLimit = 128

// Cache is an in-process capture cache with per-key single-flight: any
// number of goroutines may ask for the same program concurrently and
// exactly one profiling run happens. The cache holds at most limit
// entries; inserting past the cap evicts the oldest-inserted entry
// (FIFO), which an in-flight capture survives — its waiters hold the
// entry directly, the eviction only stops future reuse.
type Cache struct {
	mu    sync.Mutex
	m     map[Key]*cacheEntry
	order []Key // insertion order of live entries; drives eviction
	limit int

	hits, misses, evictions uint64
}

// cacheEntry is one key's capture; done closes once cap and err are set.
type cacheEntry struct {
	done chan struct{}
	cap  *Capture
	err  error
}

// NewCache returns an empty capture cache bounded at DefaultCacheLimit.
func NewCache() *Cache { return &Cache{m: make(map[Key]*cacheEntry), limit: DefaultCacheLimit} }

// Shared is the process-wide capture cache used by the imtrans facade.
var Shared = NewCache()

// SetLimit bounds the cache to n entries, returning the previous bound.
// Values below 1 are clamped to 1 — the cache is always bounded. If the
// cache currently holds more than n entries, the oldest are evicted
// immediately.
func (c *Cache) SetLimit(n int) int {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.limit
	c.limit = n
	c.evictLocked()
	return prev
}

// Limit reports the current entry-count bound.
func (c *Cache) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Len reports the number of cached captures.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evictLocked drops oldest-inserted entries until the cache fits its
// limit. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for len(c.m) > c.limit && len(c.order) > 0 {
		k := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.m[k]; ok {
			delete(c.m, k)
			c.evictions++
		}
	}
}

// GetOrCapture returns the cached capture for key, running capture exactly
// once per key to produce it. A failed capture is cached too: determinism
// means retrying cannot help, and callers get the same error.
func (c *Cache) GetOrCapture(key Key, capture func() (*Capture, error)) (*Capture, error) {
	return c.GetOrCaptureCtx(context.Background(), key, func(context.Context) (*Capture, error) { return capture() })
}

// errAbandoned marks an entry whose capture panicked before it could
// record a result.
var errAbandoned = errors.New("replay: capture abandoned")

// GetOrCaptureCtx is GetOrCapture under a context. The leader passes its
// own ctx to capture; a waiter stops waiting once its ctx is done. A
// capture that ends in a context error (or panics) is never cached: the
// entry is dropped, and a waiter whose own ctx is still live captures
// again instead of returning another request's cancellation.
func (c *Cache) GetOrCaptureCtx(ctx context.Context, key Key, capture func(context.Context) (*Capture, error)) (*Capture, error) {
	for {
		c.mu.Lock()
		e := c.m[key]
		lead := e == nil
		if lead {
			e = &cacheEntry{done: make(chan struct{}), err: errAbandoned}
			c.m[key] = e
			c.order = append(c.order, key)
			c.misses++
			c.evictLocked()
		} else {
			c.hits++
		}
		c.mu.Unlock()
		if lead {
			return c.lead(ctx, key, e, capture)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != errAbandoned && !isCtxErr(e.err) {
			return e.cap, e.err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// lead runs key's capture and publishes the outcome to the entry's
// waiters, dropping the entry unless the outcome is deterministic.
func (c *Cache) lead(ctx context.Context, key Key, e *cacheEntry, capture func(context.Context) (*Capture, error)) (*Capture, error) {
	defer func() {
		if e.err == errAbandoned || isCtxErr(e.err) {
			c.forget(key, e)
		}
		close(e.done)
	}()
	e.cap, e.err = capture(ctx)
	return e.cap, e.err
}

// forget removes key's entry if it is still e.
func (c *Cache) forget(key Key, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] != e {
		return
	}
	delete(c.m, key)
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats reports cache hits and misses (misses equal profiling runs).
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many entries the size bound has pushed out.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Purge drops every cached capture but keeps the hit/miss/eviction
// statistics — the memory-release half of Clear.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[Key]*cacheEntry)
	c.order = nil
}

// Clear drops every cached capture and resets the statistics.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[Key]*cacheEntry)
	c.order = nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}
