package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testKey(i int) Key {
	return ProgramKey(0, []uint32{uint32(i)}, 0, nil, fmt.Sprintf("key-%d", i))
}

func fill(c *Cache, n int) {
	for i := 0; i < n; i++ {
		i := i
		c.GetOrCapture(testKey(i), func() (*Capture, error) {
			return &Capture{Key: testKey(i)}, nil
		})
	}
}

func TestCacheEvictsOldestAtLimit(t *testing.T) {
	c := NewCache()
	c.SetLimit(3)
	fill(c, 5) // keys 0,1 evicted; 2,3,4 remain
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := c.Evictions(); got != 2 {
		t.Errorf("Evictions = %d, want 2", got)
	}
	// Re-asking for an evicted key is a miss (recaptured); a kept key hits.
	recaptured := false
	c.GetOrCapture(testKey(0), func() (*Capture, error) {
		recaptured = true
		return &Capture{}, nil
	})
	if !recaptured {
		t.Error("evicted entry was served from cache")
	}
	called := false
	c.GetOrCapture(testKey(4), func() (*Capture, error) {
		called = true
		return &Capture{}, nil
	})
	if called {
		t.Error("retained entry was recaptured")
	}
}

func TestCacheSetLimitClampsAndShrinks(t *testing.T) {
	c := NewCache()
	if prev := c.SetLimit(0); prev != DefaultCacheLimit {
		t.Errorf("SetLimit(0) returned %d, want %d", prev, DefaultCacheLimit)
	}
	if got := c.Limit(); got != 1 {
		t.Errorf("Limit after clamp = %d, want 1", got)
	}
	c.SetLimit(10)
	fill(c, 10)
	c.SetLimit(4) // shrinking evicts immediately
	if got := c.Len(); got != 4 {
		t.Errorf("Len after shrink = %d, want 4", got)
	}
}

func TestCachePurgeKeepsStats(t *testing.T) {
	c := NewCache()
	fill(c, 3)
	fill(c, 3) // all hits
	c.Purge()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len after purge = %d, want 0", got)
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 3 {
		t.Errorf("Stats after purge = (%d,%d), want (3,3)", hits, misses)
	}
	c.Clear()
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Stats after clear = (%d,%d), want zeros", hits, misses)
	}
}

// TestCacheBoundedUnderConcurrency hammers a small cache from many
// goroutines: the bound must hold and single-flight must stay intact for
// retained keys.
func TestCacheBoundedUnderConcurrency(t *testing.T) {
	c := NewCache()
	c.SetLimit(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % 16
				c.GetOrCapture(testKey(k), func() (*Capture, error) {
					return &Capture{}, nil
				})
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > 4 {
		t.Errorf("Len = %d exceeds limit 4", got)
	}
}

// TestCacheDropsCancelledCapture: a capture that ends in its leader's
// context error, or panics, is never cached. A waiter whose own context
// is live captures again instead of inheriting the failure; a waiter
// whose context ends stops waiting at once.
func TestCacheDropsCancelledCapture(t *testing.T) {
	c := NewCache()
	key := testKey(7)
	fresh := func(context.Context) (*Capture, error) { return &Capture{Key: key, Instructions: 9}, nil }

	// waitHits blocks until n callers have found the in-flight entry.
	waitHits := func(n uint64) {
		for hits, _ := c.Stats(); hits < n; hits, _ = c.Stats() {
			time.Sleep(time.Millisecond)
		}
	}
	// lead starts a capture that blocks until release, then runs end.
	lead := func(ctx context.Context, end func(context.Context) (*Capture, error)) (release func(), errc chan error) {
		started, gate := make(chan struct{}), make(chan struct{})
		errc = make(chan error, 1)
		go func() {
			defer func() { recover() }()
			_, err := c.GetOrCaptureCtx(ctx, key, func(ctx context.Context) (*Capture, error) {
				close(started)
				<-gate
				return end(ctx)
			})
			errc <- err
		}()
		<-started
		return func() { close(gate) }, errc
	}

	// A waiter whose own context ends stops waiting; the leader goes on.
	release, errc := lead(context.Background(), fresh)
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	if _, err := c.GetOrCaptureCtx(gone, key, fresh); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}
	release()
	if err := <-errc; err != nil {
		t.Fatalf("leader: %v", err)
	}
	c.Clear()

	for name, end := range map[string]func(context.Context) (*Capture, error){
		"cancelled": func(ctx context.Context) (*Capture, error) { <-ctx.Done(); return nil, ctx.Err() },
		"panicked":  func(context.Context) (*Capture, error) { panic("boom") },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		release, _ := lead(ctx, end)
		got := make(chan *Capture, 1)
		go func() {
			cp, err := c.GetOrCaptureCtx(context.Background(), key, fresh)
			if err != nil {
				t.Errorf("%s: live waiter: %v", name, err)
			}
			got <- cp
		}()
		waitHits(1)
		cancel()
		release()
		if cp := <-got; cp == nil || cp.Instructions != 9 {
			t.Fatalf("%s: live waiter got %+v, want its own capture", name, cp)
		}
		if hits, misses := c.Stats(); hits != 1 || misses != 2 {
			t.Fatalf("%s: stats = %d hits, %d misses; want 1, 2", name, hits, misses)
		}
		if cp, err := c.GetOrCapture(key, func() (*Capture, error) { return nil, errors.New("recaptured") }); err != nil || cp.Instructions != 9 {
			t.Fatalf("%s: the retried capture was not cached: %v", name, err)
		}
		c.Clear()
	}
}
