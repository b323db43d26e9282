package imtrans

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestSweepWorkerClamp pins the two-level parallelism contract: the
// sweep's grid fan-out times each cell's encoder fan-out never exceeds
// the SetParallelism clamp, whatever combination of clamp, requested
// sweep parallelism and grid size is in play. The counters the sweep
// publishes are the observable.
func TestSweepWorkerClamp(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "tri"))}
	cfgs := []Config{{BlockSize: 5}, {BlockSize: 6}, {BlockSize: 4}}
	cases := []struct {
		clamp, par          int
		wantGrid, wantInner uint64
	}{
		// Wide clamp, narrow grid: grid workers bounded by the cell count,
		// leftover clamp goes to the encoders.
		{clamp: 8, par: 8, wantGrid: 3, wantInner: 2},
		// Clamp narrower than the request: the clamp wins.
		{clamp: 2, par: 8, wantGrid: 2, wantInner: 1},
		// Serial clamp: everything single-threaded.
		{clamp: 1, par: 8, wantGrid: 1, wantInner: 1},
		// Request narrower than the clamp: encoders soak up the quotient.
		{clamp: 6, par: 2, wantGrid: 2, wantInner: 3},
	}
	for _, tc := range cases {
		prev := SetParallelism(tc.clamp)
		res, err := SweepMeasureCtx(context.Background(), benches, cfgs,
			SweepOptions{Parallelism: tc.par})
		SetParallelism(prev)
		if err != nil {
			t.Fatalf("clamp=%d par=%d: %v", tc.clamp, tc.par, err)
		}
		grid := res.Counters.Get("sweep_grid_workers")
		inner := res.Counters.Get("sweep_inner_workers")
		if grid != tc.wantGrid || inner != tc.wantInner {
			t.Errorf("clamp=%d par=%d: grid=%d inner=%d, want grid=%d inner=%d",
				tc.clamp, tc.par, grid, inner, tc.wantGrid, tc.wantInner)
		}
		if grid*inner > uint64(tc.clamp) {
			t.Errorf("clamp=%d par=%d: grid(%d) x inner(%d) exceeds the clamp",
				tc.clamp, tc.par, grid, inner)
		}
	}
}

// sharedSigConfigs is a four-way signature group: equal block size,
// chaining strategy, function set and bus width, so every covered block
// encodes identically across the group — only the selection policy and
// table capacities differ.
var sharedSigConfigs = []Config{
	{BlockSize: 5},
	{BlockSize: 5, TTEntries: 4},
	{BlockSize: 5, TTEntries: 8},
	{BlockSize: 5, Knapsack: true},
}

// TestSweepSharedMemoCounters proves cross-configuration memo sharing
// does real work: a sweep over a four-config signature group must adopt
// memos across cells (replay_memo_shared > 0), record strictly fewer
// blocks locally than four isolated single-config sweeps, and serve at
// least as many replays from memo. Serial parallelism keeps the
// record/adopt split deterministic. The six-kernel grid below, the
// Figure 6 block sizes plus a four-way k=5 spread, must adopt memos and
// serve more replays from memo than it records, with a wall time on every
// cell, serially and at four workers alike.
func TestSweepSharedMemoCounters(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "tri")), testScale(mustBench(t, "sor"))}
	opts := SweepOptions{Parallelism: 1}

	shared, err := SweepMeasureCtx(context.Background(), benches, sharedSigConfigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var soloBlocks, soloHits uint64
	solo := make([][]Measurement, len(benches))
	for bi := range benches {
		solo[bi] = make([]Measurement, len(sharedSigConfigs))
	}
	for ci, c := range sharedSigConfigs {
		res, err := SweepMeasureCtx(context.Background(), benches, []Config{c}, opts)
		if err != nil {
			t.Fatal(err)
		}
		soloBlocks += res.Counters.Get("replay_memo_blocks")
		soloHits += res.Counters.Get("replay_memo_hits")
		for bi := range benches {
			solo[bi][ci] = res.Measurements[bi][0]
		}
	}

	adopted := shared.Counters.Get("replay_memo_shared")
	blocks := shared.Counters.Get("replay_memo_blocks")
	hits := shared.Counters.Get("replay_memo_hits")
	if adopted == 0 {
		t.Error("shared sweep adopted no cross-config memos")
	}
	if blocks >= soloBlocks {
		t.Errorf("shared sweep recorded %d blocks, isolated sweeps %d; sharing saved nothing", blocks, soloBlocks)
	}
	if hits < soloHits {
		t.Errorf("shared sweep served %d memo replays, isolated sweeps %d; sharing lost hits", hits, soloHits)
	}
	// Sharing must be invisible in the measurements themselves.
	if !reflect.DeepEqual(shared.Measurements, solo) {
		t.Error("shared-memo sweep measurements differ from isolated sweeps")
	}

	suite := testSuite()
	grid := []Config{
		{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7},
		{BlockSize: 5, TTEntries: 4}, {BlockSize: 5, TTEntries: 8},
		{BlockSize: 5, TTEntries: 32}, {BlockSize: 5, Knapsack: true},
	}
	for _, par := range []int{1, 4} {
		res, err := SweepMeasureCtx(context.Background(), suite, grid, SweepOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		adopted := res.Counters.Get("replay_memo_shared")
		blocks := res.Counters.Get("replay_memo_blocks")
		hits := res.Counters.Get("replay_memo_hits")
		if adopted == 0 {
			t.Errorf("parallelism %d: six-kernel grid adopted no cross-config memos", par)
		}
		if hits <= blocks {
			t.Errorf("parallelism %d: %d memo replays for %d recorded blocks", par, hits, blocks)
		}
		for bi := range suite {
			for ci := range grid {
				if res.CellNs[bi][ci] <= 0 {
					t.Errorf("parallelism %d: cell (%s, %v) has no wall time", par, suite[bi].Name, grid[ci])
				}
			}
		}
	}
}

// TestStreamingReplayWarmAllocs pins the streaming engine's constant-
// memory claim at the allocation level: warm replays of the same kernel
// text at 10x the loop count must allocate the same, because streaming
// state scales with the covered-block count, never the trace or the
// instruction stream.
func TestStreamingReplayWarmAllocs(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	ClearCaptureCache()
	small := mustBench(t, "tri").WithScale(32, 4)
	large := mustBench(t, "tri").WithScale(32, 40)
	cfg := Config{BlockSize: 5}
	// A sync.Pool may drop a Put (the race detector drops a quarter of
	// them on purpose), and a dropped Put can only add allocations, so
	// the least of five samples is the warm path's count.
	warmAllocs := func(b Benchmark) float64 {
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
	a1 := warmAllocs(small)
	a2 := warmAllocs(large)
	// The two programs share text, so coverage — and with it the entire
	// streaming working set — is identical; a couple of allocs of slack
	// absorb pool misses under GC pressure.
	if math.Abs(a1-a2) > 2 {
		t.Errorf("warm streaming allocs scale with trace length: %.0f at iters=4, %.0f at iters=40", a1, a2)
	}
}
