package imtrans

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"imtrans/internal/replay"
	"imtrans/internal/scheme"
)

// TestSweepWorkerClamp pins the one parallelism bound: a grid runs
// min(requested, SetParallelism bound, cells) workers, published as
// sweep_grid_workers, and its capture phase never runs more captures at
// once than that.
func TestSweepWorkerClamp(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "tri"))}
	cfgs := []Config{{BlockSize: 5}, {BlockSize: 6}, {BlockSize: 4}}
	cases := []struct {
		clamp, par int
		want       uint64
	}{
		{clamp: 8, par: 8, want: 3}, // the cell count binds
		{clamp: 2, par: 8, want: 2}, // the bound binds
		{clamp: 1, par: 8, want: 1},
		{clamp: 6, par: 2, want: 2}, // the request binds
	}
	for _, tc := range cases {
		prev := SetParallelism(tc.clamp)
		res, err := SweepMeasureCtx(context.Background(), benches, cfgs,
			SweepOptions{Parallelism: tc.par})
		SetParallelism(prev)
		if err != nil {
			t.Fatalf("clamp=%d par=%d: %v", tc.clamp, tc.par, err)
		}
		if got := res.Counters.Get("sweep_grid_workers"); got != tc.want {
			t.Errorf("clamp=%d par=%d: sweep_grid_workers=%d, want %d", tc.clamp, tc.par, got, tc.want)
		}
	}

	// Each capture holds its row until the bound's worth of captures has
	// been in flight at once, then a little longer, so a capture phase
	// that ran wider than the bound would show it in the peak.
	for _, tc := range []struct{ clamp, par, rows int }{
		{clamp: 1, par: 4, rows: 4},
		{clamp: 2, par: 8, rows: 6},
		{clamp: 4, par: 2, rows: 4},
		{clamp: 8, par: 8, rows: 3},
	} {
		bound := int32(min(tc.clamp, tc.par, tc.rows))
		var inFlight, peak atomic.Int32
		g := &gridSpec[int]{
			rows: tc.rows,
			capture: func(ctx context.Context, _ int) (*replay.Capture, error) {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				for deadline := time.Now().Add(time.Second); peak.Load() < bound && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(5 * time.Millisecond)
				return &replay.Capture{}, nil
			},
			cols: []gridColumn[int]{{measure: func(context.Context, *scheme.Workload) (int, cellMemo, error) {
				return 1, cellMemo{}, nil
			}}},
		}
		prev := SetParallelism(tc.clamp)
		run, err := runGrid(context.Background(), g, SweepOptions{Parallelism: tc.par})
		SetParallelism(prev)
		if err != nil {
			t.Fatal(err)
		}
		if run.gridWorkers != int(bound) || run.completed != tc.rows {
			t.Errorf("clamp=%d par=%d rows=%d: %d grid workers and %d cells done, want %d and %d",
				tc.clamp, tc.par, tc.rows, run.gridWorkers, run.completed, bound, tc.rows)
		}
		if got := peak.Load(); got != bound {
			t.Errorf("clamp=%d par=%d rows=%d: %d captures ran at once, want the bound %d",
				tc.clamp, tc.par, tc.rows, got, bound)
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
// record/adopt split deterministic. The group builds one candidate list
// per row (encode_candidates_built), at one worker and at four; each
// isolated sweep builds one per cell. The six-kernel grid below, the
// Figure 6 block sizes plus a four-way k=5 spread, must adopt memos and
// serve more replays from memo than it records, with a wall time on every
// cell and four candidate lists per row, serially and at four workers
// alike.
func TestSweepSharedMemoCounters(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "tri")), testScale(mustBench(t, "sor"))}
	opts := SweepOptions{Parallelism: 1}

	shared, err := SweepMeasureCtx(context.Background(), benches, sharedSigConfigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.Counters.Get("encode_candidates_built"); got != uint64(len(benches)) {
		t.Errorf("signature group built %d candidate lists, want one per row (%d)", got, len(benches))
	}
	wide, err := SweepMeasureCtx(context.Background(), benches, sharedSigConfigs, SweepOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Counters.Get("encode_candidates_built"); got != uint64(len(benches)) {
		t.Errorf("parallelism 4: signature group built %d candidate lists, want one per row (%d)", got, len(benches))
	}
	if !reflect.DeepEqual(wide.Measurements, shared.Measurements) {
		t.Error("signature-group measurements differ between parallelism 1 and 4")
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
		if got := res.Counters.Get("encode_candidates_built"); got != uint64(len(benches)) {
			t.Errorf("isolated sweep %v built %d candidate lists, want one per cell (%d)", c, got, len(benches))
		}
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
		// k = 4, 6 and 7 are singleton groups; the five k=5 configs share one list.
		if got, want := res.Counters.Get("encode_candidates_built"), uint64(4*len(suite)); got != want {
			t.Errorf("parallelism %d: %d candidate lists built, want %d", par, got, want)
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
