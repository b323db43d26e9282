package imtrans

import (
	"math"
	"runtime"
	"testing"
)

// TestReplayMeasureWarmAllocs pins the steady-state allocation budget of
// the warm replay path: once the capture is cached and the measure
// scratch pool is primed, a full Measure over one config allocates only
// its Result bookkeeping. The budget is several times the measured count
// (to absorb pool misses under GC pressure) but far below the ~1500
// allocs/op of the pre-packed engine, so a regression back to per-call
// prefix/coverage rebuilds fails loudly.
func TestReplayMeasureWarmAllocs(t *testing.T) {
	ClearCaptureCache()
	b := testScale(mustBench(t, "mmul"))
	cfg := Config{BlockSize: 5}
	if _, err := b.Measure(cfg); err != nil {
		t.Fatal(err) // capture + prime the scratch pool
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Measure(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 300
	if allocs > budget {
		t.Errorf("warm Measure: %.0f allocs/op, budget %d", allocs, budget)
	}
}

// TestWarmAllocsIndependentOfParallelism pins that the parallelism bound
// costs a one-config Measure nothing: its grid has one cell, so it runs
// on one worker at any SetParallelism bound, and the encoder starts no
// goroutines of its own. A dropped sync.Pool Put (the race detector drops
// a quarter of them on purpose) can only add allocations, so the least
// of five samples is each bound's count, and two allocs of slack absorb
// the rest.
func TestWarmAllocsIndependentOfParallelism(t *testing.T) {
	b := testScale(mustBench(t, "mmul"))
	cfg := Config{BlockSize: 5}
	warmAllocs := func(bound int) float64 {
		defer SetParallelism(SetParallelism(bound))
		if _, err := b.Measure(cfg); err != nil {
			t.Fatal(err) // capture + prime the scratch pools
		}
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(10, func() {
				if _, err := b.Measure(cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	procs := runtime.GOMAXPROCS(0)
	serial, wide := warmAllocs(1), warmAllocs(procs)
	if math.Abs(serial-wide) > 2 {
		t.Errorf("warm Measure allocates %.0f at SetParallelism(1) but %.0f at SetParallelism(%d)", serial, wide, procs)
	}
}
