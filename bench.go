package imtrans

import (
	"context"
	"fmt"
	"sync"

	"imtrans/internal/workloads"
)

// Benchmark is one of the paper's six evaluation kernels, optionally
// rescaled. The zero parameters run the paper's problem sizes.
type Benchmark struct {
	Name        string
	Description string
	N           int // problem size (0 = paper default)
	Iters       int // sweeps/repetitions where applicable (0 = default)

	w    *workloads.Workload
	prog *progMemo
}

// progMemo holds the lazily assembled program for one (kernel, scale).
// Benchmark has value semantics, so the memo is a shared pointer; WithScale
// swaps in a fresh one whenever the scale actually changes.
type progMemo struct {
	once sync.Once
	p    *Program
	err  error
}

// Benchmarks returns the six paper benchmarks in the paper's column order:
// mmul, sor, ej, fft, tri, lu.
func Benchmarks() []Benchmark {
	ws := workloads.All()
	out := make([]Benchmark, len(ws))
	for i, w := range ws {
		out[i] = Benchmark{
			Name:        w.Name,
			Description: w.Description,
			N:           w.Defaults.N,
			Iters:       w.Defaults.Iters,
			w:           w,
			prog:        &progMemo{},
		}
	}
	return out
}

// ExtraBenchmarks returns kernels beyond the paper's suite — a
// table-driven CRC-32 (integer-only), a biquad IIR cascade and a 3x3
// convolution with an unrolled tap body — used to check the technique
// generalises across opcode mixes and basic-block shapes.
func ExtraBenchmarks() []Benchmark {
	ws := workloads.Extras()
	out := make([]Benchmark, len(ws))
	for i, w := range ws {
		out[i] = Benchmark{
			Name:        w.Name,
			Description: w.Description,
			N:           w.Defaults.N,
			Iters:       w.Defaults.Iters,
			w:           w,
			prog:        &progMemo{},
		}
	}
	return out
}

// BenchmarkByName returns one benchmark (paper suite or extra) by name.
func BenchmarkByName(name string) (Benchmark, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{
		Name:        w.Name,
		Description: w.Description,
		N:           w.Defaults.N,
		Iters:       w.Defaults.Iters,
		w:           w,
		prog:        &progMemo{},
	}, nil
}

// WithScale returns a copy of the benchmark at a different problem size
// and repetition count (zero keeps the current value).
func (b Benchmark) WithScale(n, iters int) Benchmark {
	old := b
	if n != 0 {
		b.N = n
	}
	if iters != 0 {
		b.Iters = iters
	}
	if b.N != old.N || b.Iters != old.Iters {
		b.prog = &progMemo{}
	}
	return b
}

// captureSalt names the (kernel, scale) identity in the fetch-trace cache
// key, so distinct benchmarks that happen to assemble to identical images
// but differ in memory setup never share a capture.
func (b Benchmark) captureSalt() string {
	return fmt.Sprintf("%s n=%d iters=%d", b.Name, b.N, b.Iters)
}

func (b Benchmark) params() workloads.Params {
	return b.w.Fill(workloads.Params{N: b.N, Iters: b.Iters})
}

// Program renders and assembles the benchmark kernel. The result is
// memoised per (kernel, scale): repeated measurements of one benchmark
// assemble once and share the *Program. A scale outside the kernel's
// domain is an error before anything is assembled: each kernel has a
// smallest problem size (fft takes only powers of two), at least one
// iteration, and a largest scale whose run fits the simulator's default
// instruction cap.
func (b Benchmark) Program() (*Program, error) {
	if b.w == nil {
		return nil, fmt.Errorf("imtrans: use Benchmarks or BenchmarkByName to obtain benchmarks")
	}
	if err := b.w.Validate(b.params()); err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	if b.prog == nil {
		return Assemble(b.w.Source(b.params()))
	}
	b.prog.once.Do(func() {
		b.prog.p, b.prog.err = Assemble(b.w.Source(b.params()))
	})
	return b.prog.p, b.prog.err
}

// setup initialises data memory for the kernel.
func (b Benchmark) setup(m Memory) error {
	return b.w.Setup(m.m, b.params())
}

// target is the capture target of p, the benchmark's program or a variant
// of it: the kernel's memory setup, its (kernel, scale) salt and its
// golden check. It is the only place a target gets a salt or a check.
func (b Benchmark) target(p *Program) target {
	check := func(m Memory) error { return b.w.Check(m.m, b.params()) }
	return target{p: p, setup: b.setup, salt: b.captureSalt(), check: check}
}

// Run executes the benchmark at its configured scale on a Machine, checks
// the numerical result against the kernel's golden reference, and returns
// the run's RunResult: the per-line baseline bus, the profile and the
// instruction mix. The measuring methods do not call it: they read the
// benchmark's capture, whose one profiling run passes the same check.
func (b Benchmark) Run() (*RunResult, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	mc, err := NewMachine(p)
	if err == nil {
		err = b.setup(mc.Memory())
	}
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	res, err := mc.Run()
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	if err := b.w.Check(mc.c.Mem, b.params()); err != nil {
		return nil, fmt.Errorf("imtrans: %s: golden check: %w", b.Name, err)
	}
	return res, nil
}

// MeasureWithCache runs the cached-system study (see MeasureWithCache)
// on the benchmark, over the capture its Measure calls share.
func (b Benchmark) MeasureWithCache(cache CacheConfig, enc Config) (*CacheMeasurement, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	cm, err := measureWithCache(b.target(p), cache, enc)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return cm, nil
}

// Measure runs the full pipeline (profile, encode, decoder-in-the-loop
// measurement) for each configuration — the machinery behind the paper's
// Figure 6. The profiling run is checked: the kernel's numerical output
// must match its golden reference, or Measure fails with a golden-check
// error. Every restored instruction word is then verified against the
// original during the replay.
//
// Measure goes through the capture/replay engine: the benchmark is
// simulated once per (kernel, scale) across the whole process and every
// configuration is replayed from the cached fetch trace, in memory
// proportional to the covered-block count rather than the program —
// bit-identical to MeasureProgram (see ReplayMeasure). Every Benchmark
// method that reads the capture shares that one checked run. Use
// SimulateMeasure to force the two-run reference pipeline.
func (b Benchmark) Measure(cfgs ...Config) ([]Measurement, error) {
	return b.MeasureCtx(context.Background(), cfgs...)
}

// MeasureCtx is Measure with cooperative cancellation: the context is
// polled inside the profiling run, before each bit line the encoder
// encodes and in the replay fetch loop, so a cancelled measurement stops
// within one task granule. A cancelled run returns an error wrapping
// ctx.Err() and no measurements.
func (b Benchmark) MeasureCtx(ctx context.Context, cfgs ...Config) ([]Measurement, error) {
	cols, err := paperColumns(cfgs)
	if err != nil {
		return nil, err
	}
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	ms, err := replayMeasureCtx(ctx, b.target(p), cols)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return ms, nil
}

// SimulateMeasure is Measure without the capture/replay engine: the
// reference two-run MeasureProgram pipeline, simulating the kernel anew.
func (b Benchmark) SimulateMeasure(cfgs ...Config) ([]Measurement, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	ms, err := MeasureProgram(p, b.setup, cfgs...)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return ms, nil
}
