package imtrans

// Hot-path benchmarks for the measurement pipeline: the CPU fetch loop,
// paper-scale capture, encoding-plan construction, and the capture/replay
// engine against the reference two-run simulate pipeline. CI runs these
// with -benchtime=1x as a smoke test, and gates on four ns/op ratios
// between them: capture against bare simulation (BenchmarkPerfCapture vs
// BenchmarkPerfCaptureSimulate), the cold sweep against serial simulation
// (BenchmarkPerfSweep vs BenchmarkPerfSweepSimulate), the warm sweep at
// -cpu 1,4,8 (BenchmarkPerfSweepWarm) and the fleet's batch kernels
// against its scalar coders (BenchmarkCompareFleet).
// BenchmarkPerfSweepDesign times the 168-config design sweep from warm
// captures; it has no gate, and TestSweepSharedMemoCounters pins the
// candidate sharing it rests on. Locally,
// `go test -bench 'Perf|CompareFleet' -run - .` gives the numbers; the
// end-to-end benchmark is `bash perfbench/run.sh`.

import (
	"context"
	"runtime"
	"testing"
)

func perfBenchmark(b *testing.B, name string) Benchmark {
	b.Helper()
	bm, err := BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return testScale(bm)
}

// BenchmarkPerfCPUFetchLoop is the raw simulator: one full run of the mmul
// kernel per iteration, no bus sinks attached.
func BenchmarkPerfCPUFetchLoop(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	p, err := bm.Program()
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := newMachine(p, bm.setup)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		insts = m.InstCount
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insts)*float64(b.N)/s, "inst/s")
	}
}

// benchPaperRuns times run over the six paper kernels at paper scale, one
// pass per iteration, and reports the simulated instructions per second.
func benchPaperRuns(b *testing.B, run func(p *Program, setup func(Memory) error) (insts uint64, err error)) {
	b.ReportAllocs()
	benches := Benchmarks()
	progs := make([]*Program, len(benches))
	for i, bm := range benches {
		p, err := bm.Program()
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bm := range benches {
			n, err := run(progs[j], bm.setup)
			if err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
			insts += n
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insts)/s, "inst/s")
	}
}

// BenchmarkPerfCapture profiles the six paper-scale kernels through
// captureRun, bypassing the capture cache: simulate and fold the CPU's
// straight-line spans, then derive the configuration-independent totals
// from the folded trace. It is the cold cost of the Figure 6
// reproduction.
func BenchmarkPerfCapture(b *testing.B) {
	benchPaperRuns(b, func(p *Program, setup func(Memory) error) (uint64, error) {
		c, err := captureRun(context.Background(), p, setup)
		if err != nil {
			return 0, err
		}
		return c.Instructions, nil
	})
}

// BenchmarkPerfCaptureSimulate runs the same six simulations with no
// fetch or span hook: the floor BenchmarkPerfCapture approaches. CI fails
// if a capture costs more than two bare simulations.
func BenchmarkPerfCaptureSimulate(b *testing.B) {
	benchPaperRuns(b, func(p *Program, setup func(Memory) error) (uint64, error) {
		m, err := newMachine(p, setup)
		if err != nil {
			return 0, err
		}
		if err := m.RunCtx(context.Background()); err != nil {
			return 0, err
		}
		return m.InstCount, nil
	})
}

// BenchmarkPerfCoreEncode plans one k=5 encoding (graph, chains, TT/BBIT
// allocation, encoded image) from a precomputed profile per iteration —
// the per-configuration cost the parallel sweep fans out.
func BenchmarkPerfCoreEncode(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	p, err := bm.Program()
	if err != nil {
		b.Fatal(err)
	}
	m, err := newMachine(p, bm.setup)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	profile := append([]uint64(nil), m.Profile()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeProgram(p, profile, Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfSimulateMeasure is the reference pipeline: two full
// simulations per measurement call.
func BenchmarkPerfSimulateMeasure(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	for i := 0; i < b.N; i++ {
		if _, err := bm.SimulateMeasure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfReplayMeasureWarm is the same measurement through the
// capture/replay engine with the trace already cached — the cost every
// measurement after the first pays.
func BenchmarkPerfReplayMeasureWarm(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
		b.Fatal(err) // prime the capture cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfReplayMeasureCold includes the capture: one profiling
// simulation plus one replay per iteration.
func BenchmarkPerfReplayMeasureCold(b *testing.B) {
	b.ReportAllocs()
	bm := perfBenchmark(b, "mmul")
	for i := 0; i < b.N; i++ {
		ClearCaptureCache()
		if _, err := bm.Measure(Config{BlockSize: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// perfSweepConfigs are the Figure 6 block sizes.
var perfSweepConfigs = []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}

// BenchmarkPerfSweep evaluates the Figure 6 grid (six kernels, four block
// sizes) per iteration from a cold cache: one capture per kernel, then
// every cell replayed.
func BenchmarkPerfSweep(b *testing.B) {
	b.ReportAllocs()
	benches := testSuite()
	for i := 0; i < b.N; i++ {
		ClearCaptureCache()
		if _, err := SweepMeasure(benches, perfSweepConfigs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfSweepSimulate evaluates the same grid the way every figure
// did before capture/replay: serially, two full simulations per cell.
// BenchmarkPerfSweep must not be slower.
func BenchmarkPerfSweepSimulate(b *testing.B) {
	b.ReportAllocs()
	benches := testSuite()
	for i := 0; i < b.N; i++ {
		for _, bm := range benches {
			for _, c := range perfSweepConfigs {
				if _, err := bm.SimulateMeasure(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkPerfSweepWarm re-sweeps the grid from warm captures with the
// grid parallelism set to GOMAXPROCS, so `-cpu 1,4,8` times a
// strong-scaling ladder of the encode and replay pipeline.
func BenchmarkPerfSweepWarm(b *testing.B) {
	b.ReportAllocs()
	procs := runtime.GOMAXPROCS(0)
	defer SetParallelism(SetParallelism(procs))
	benches := testSuite()
	opts := SweepOptions{Parallelism: procs}
	if _, err := SweepMeasureCtx(context.Background(), benches, perfSweepConfigs, opts); err != nil {
		b.Fatal(err) // prime the capture cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SweepMeasureCtx(context.Background(), benches, perfSweepConfigs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// designCapacities are the (TT, BBIT) capacity pairs of the paper-config
// design space.
var designCapacities = [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 16}, {32, 32}, {64, 64}}

// designSpace returns the paper-config design space in signature order:
// k 2..8 × 8 or 16 functions × greedy or exact chaining × the six
// capacity pairs, each point under the selection policies knapsack
// returns for its capacity index (false is heat-greedy).
func designSpace(knapsack func(capIdx int) []bool) []Config {
	var out []Config
	for k := 2; k <= 8; k++ {
		for _, all := range []bool{false, true} {
			for _, exact := range []bool{false, true} {
				for ci, c := range designCapacities {
					for _, knap := range knapsack(ci) {
						out = append(out, Config{
							BlockSize: k, TTEntries: c[0], BBITEntries: c[1],
							AllFunctions: all, Exact: exact, Knapsack: knap,
						})
					}
				}
			}
		}
	}
	return out
}

// BenchmarkPerfSweepDesign re-sweeps the 168-config design space (28
// per-block signatures, each at the six capacity pairs, knapsack
// selection at every other pair) over the six kernels from warm captures
// at GOMAXPROCS grid workers. Each row's signature group selects from one
// shared candidate list, so the sweep builds 168 lists, not 1008; the
// lists/op metric reports the encode_candidates_built counter.
func BenchmarkPerfSweepDesign(b *testing.B) {
	b.ReportAllocs()
	benches := testSuite()
	cfgs := designSpace(func(ci int) []bool { return []bool{ci%2 == 1} })
	if _, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{}); err != nil {
		b.Fatal(err) // prime the capture cache
	}
	b.ResetTimer()
	var lists uint64
	for i := 0; i < b.N; i++ {
		res, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		lists = res.Counters.Get("encode_candidates_built")
	}
	b.ReportMetric(float64(lists), "lists/op")
}

// BenchmarkCompareFleet times the six related-work schemes over the six
// kernels from warm captures, once through the scalar per-word coders
// and once through the fleet's batch kernels. batch must not be slower
// than scalar; TestCompareBatchToggleBitIdentical and
// TestFleetBatchMatchesScalar prove the two agree.
func BenchmarkCompareFleet(b *testing.B) {
	benches := testSuite()
	var specs []SchemeSpec
	for _, info := range Schemes() {
		if info.Name != "paper" {
			specs = append(specs, SchemeSpec{Name: info.Name})
		}
	}
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"scalar", false}, {"batch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			defer SetFleetBatchReplay(SetFleetBatchReplay(mode.batch))
			if _, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{}); err != nil {
				b.Fatal(err) // prime the capture cache
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
