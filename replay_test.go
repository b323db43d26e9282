package imtrans

import (
	"context"
	"reflect"
	"testing"

	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/replay"
)

// testScale shrinks a paper benchmark to test-sized problems (the same
// scales cmd/reproduce -small uses) and an extra kernel to its workload's
// test parameters.
func testScale(b Benchmark) Benchmark {
	switch b.Name {
	case "mmul":
		return b.WithScale(24, 0)
	case "sor":
		return b.WithScale(32, 2)
	case "ej":
		return b.WithScale(24, 4)
	case "fft":
		return b.WithScale(64, 0)
	case "tri":
		return b.WithScale(32, 10)
	case "lu":
		return b.WithScale(24, 0)
	}
	return b.WithScale(b.w.TestParams.N, b.w.TestParams.Iters)
}

// testSuite is the six paper kernels at test scale.
func testSuite() []Benchmark {
	var benches []Benchmark
	for _, b := range Benchmarks() {
		benches = append(benches, testScale(b))
	}
	return benches
}

// replayTestConfigs exercises every pipeline variant the replay path must
// reproduce: the Figure 6 block sizes plus exact chaining, knapsack TT
// allocation, the 16-function space, and a tight table budget.
var replayTestConfigs = []Config{
	{BlockSize: 4},
	{BlockSize: 5},
	{BlockSize: 6},
	{BlockSize: 7},
	{BlockSize: 5, Exact: true},
	{BlockSize: 5, Knapsack: true},
	{BlockSize: 5, AllFunctions: true},
	{BlockSize: 5, TTEntries: 4},
}

// TestReplayMatchesSimulate is the tentpole equivalence check: for every
// paper kernel, every extra kernel and every configuration variant, the
// capture/replay engine must produce Measurements identical — every
// field, bit for bit, the totals a capture derives from its folded trace
// included — to the reference two-run simulate pipeline.
func TestReplayMatchesSimulate(t *testing.T) {
	for _, b := range append(Benchmarks(), ExtraBenchmarks()...) {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			sim, err := b.SimulateMeasure(replayTestConfigs...)
			if err != nil {
				t.Fatalf("SimulateMeasure: %v", err)
			}
			rep, err := b.Measure(replayTestConfigs...)
			if err != nil {
				t.Fatalf("Measure (replay): %v", err)
			}
			if len(sim) != len(rep) {
				t.Fatalf("got %d replay measurements, want %d", len(rep), len(sim))
			}
			for i := range sim {
				if !reflect.DeepEqual(sim[i], rep[i]) {
					t.Errorf("config %v: replay measurement differs from simulate\nsimulate: %+v\nreplay:   %+v",
						replayTestConfigs[i], sim[i], rep[i])
				}
			}
		})
	}
}

// TestReplayMeasureProgramFacade checks the program-level facade against
// MeasureProgram on a plain assembly program with no setup callback.
func TestReplayMeasureProgramFacade(t *testing.T) {
	p, err := Assemble(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := MeasureProgram(p, nil, Config{BlockSize: 5}, Config{BlockSize: 6, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayMeasure(p, nil, Config{BlockSize: 5}, Config{BlockSize: 6, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, rep) {
		t.Errorf("ReplayMeasure differs from MeasureProgram\nsimulate: %+v\nreplay:   %+v", sim, rep)
	}
}

// TestSweepMeasureDeterministic runs the full benchmark/config grid at
// parallelism 1 and parallelism 8 (from a cold capture cache each time)
// and requires byte-identical results. CI runs this under -race, which
// also exercises the worker pools for data races.
func TestSweepMeasureDeterministic(t *testing.T) {
	var benches []Benchmark
	for _, b := range Benchmarks() {
		benches = append(benches, testScale(b))
	}
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}

	ClearCaptureCache()
	serial, err := SweepMeasure(benches, cfgs, 1)
	if err != nil {
		t.Fatalf("SweepMeasure j=1: %v", err)
	}
	ClearCaptureCache()
	parallel, err := SweepMeasure(benches, cfgs, 8)
	if err != nil {
		t.Fatalf("SweepMeasure j=8: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("SweepMeasure results depend on parallelism")
	}
	// And the grid must agree with per-benchmark Measure.
	for bi, b := range benches {
		ms, err := b.Measure(cfgs...)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !reflect.DeepEqual(serial[bi], ms) {
			t.Errorf("%s: sweep row differs from Measure", b.Name)
		}
	}
}

// TestReplayMemoExercised drives the replay engine directly against a
// loop-heavy kernel and requires the block-outcome memo to fire: at least
// one covered block recorded on first visit, and later loop iterations of
// it served from the memo. The equivalence tests above then guarantee the
// memoised totals are bit-identical to the simulate pipeline.
func TestReplayMemoExercised(t *testing.T) {
	ClearCaptureCache()
	for _, name := range []string{"tri", "sor"} {
		b := testScale(mustBench(t, name))
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		cap, err := captureProgram(context.Background(), p, b.setup, b.captureSalt())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := core.Encode(cap.Graph, cap.Profile, Config{BlockSize: 5}.coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		dec, err := hw.NewDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		dec.Strict = true
		res, err := replay.MeasureOpts(context.Background(), cap, enc, dec, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MemoBlocks == 0 {
			t.Errorf("%s: no covered block was memoised", name)
		}
		if res.MemoHits == 0 {
			t.Errorf("%s: memo recorded %d blocks but served no replays", name, res.MemoBlocks)
		}
		t.Logf("%s: %d blocks memoised, %d replays served from the memo", name, res.MemoBlocks, res.MemoHits)
	}
}

// TestCaptureCacheReuse verifies that repeated measurements of one
// benchmark simulate exactly once.
func TestCaptureCacheReuse(t *testing.T) {
	ClearCaptureCache()
	b := testScale(mustBench(t, "sor"))
	if _, err := b.Measure(Config{BlockSize: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Measure(Config{BlockSize: 6}, Config{BlockSize: 7}); err != nil {
		t.Fatal(err)
	}
	hits, misses := CaptureCacheStats()
	if misses != 1 {
		t.Errorf("benchmark was profiled %d times, want 1", misses)
	}
	if hits != 1 {
		t.Errorf("capture cache hits = %d, want 1", hits)
	}
}

// TestProgramMemoized verifies that a Benchmark assembles its program once
// per scale and that rescaling produces a fresh program.
func TestProgramMemoized(t *testing.T) {
	b := testScale(mustBench(t, "mmul"))
	p1, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Program() reassembled at an unchanged scale")
	}
	same := b.WithScale(b.N, b.Iters)
	p3, err := same.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("WithScale with identical values dropped the memo")
	}
	bigger := b.WithScale(b.N+8, 0)
	p4, err := bigger.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("WithScale to a new size returned the old program")
	}
	if p5, _ := b.Program(); p5 != p1 {
		t.Error("rescaled copy corrupted the original benchmark's memo")
	}
}

func mustBench(t *testing.T, name string) Benchmark {
	t.Helper()
	b, err := BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
