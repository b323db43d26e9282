package imtrans

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
func Benchmarks() []Benchmark { return benchmarksOf(workloads.All()) }

// ExtraBenchmarks returns kernels beyond the paper's suite — a
// table-driven CRC-32 (integer-only), a biquad IIR cascade and a 3x3
// convolution with an unrolled tap body — used to check the technique
// generalises across opcode mixes and basic-block shapes.
func ExtraBenchmarks() []Benchmark { return benchmarksOf(workloads.Extras()) }

// BenchmarkByName returns one benchmark (paper suite or extra) by name.
func BenchmarkByName(name string) (Benchmark, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return Benchmark{}, err
	}
	return benchmarksOf([]*workloads.Workload{w})[0], nil
}

// benchmarksOf returns the workloads as benchmarks at their default
// scales.
func benchmarksOf(ws []*workloads.Workload) []Benchmark {
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
// domain is an error before anything is assembled (see resolve).
func (b Benchmark) Program() (*Program, error) {
	return benchRun(b, func(t target) (*Program, error) { return t.p, nil })
}

// resolve is the one step every Benchmark method, and every benchmark
// row of a grid, gets its program and capture target from. It refuses a
// zero Benchmark and a scale outside the kernel's domain before anything
// is assembled or captured: each kernel has a smallest problem size (fft
// takes only powers of two), at least one iteration, and a largest scale
// whose run fits the simulator's default instruction cap.
func (b Benchmark) resolve() (target, error) {
	if b.w == nil {
		return target{}, errors.New("imtrans: use Benchmarks or BenchmarkByName to obtain benchmarks")
	}
	if err := b.w.Validate(b.params()); err != nil {
		return target{}, err
	}
	b.prog.once.Do(func() {
		b.prog.p, b.prog.err = Assemble(b.w.Source(b.params()))
	})
	if b.prog.err != nil {
		return target{}, b.prog.err
	}
	return b.target(b.prog.p), nil
}

// setup initialises data memory for the kernel.
func (b Benchmark) setup(m Memory) error {
	return b.w.Setup(m.m, b.params())
}

// target is the capture target of p, the benchmark's program or a variant
// of it: the kernel's memory setup, its (kernel, scale) salt and its
// golden check. It is the only place a target gets a salt or a check.
func (b Benchmark) target(p *Program) target {
	check := func(m Memory) error {
		if err := b.w.Check(m.m, b.params()); err != nil {
			return fmt.Errorf("golden check: %w", err)
		}
		return nil
	}
	return target{p: p, setup: b.setup, salt: b.captureSalt(), check: check}
}

// benchRun runs f on the benchmark's resolved target and names the
// kernel in any error, once: every Benchmark method that can fail runs
// through it, and it is the only place that names the kernel. The
// package prefix stays in front ("imtrans: mmul: profiling run: …").
func benchRun[T any](b Benchmark, f func(t target) (T, error)) (T, error) {
	t, err := b.resolve()
	if err == nil {
		var v T
		if v, err = f(t); err == nil {
			return v, nil
		}
	}
	if b.Name != "" {
		err = &contextError{context: b.Name, err: err}
	}
	var zero T
	return zero, err
}

// contextError is err with context added after the package prefix: a
// kernel's name, a configuration.
type contextError struct {
	context string
	err     error
}

func (e *contextError) Error() string { return withContext(e.context, e.err) }
func (e *contextError) Unwrap() error { return e.err }

// withContext renders err behind "imtrans: <context>: ", the package
// prefix once: an error this package made already carries the prefix,
// and it moves to the front instead of repeating.
func withContext(context string, err error) string {
	return "imtrans: " + context + ": " + strings.TrimPrefix(err.Error(), "imtrans: ")
}

// Run executes the benchmark at its configured scale on a Machine, checks
// the numerical result against the kernel's golden reference, and returns
// the run's RunResult: the per-line baseline bus, the profile and the
// instruction mix. The measuring methods do not call it: they read the
// benchmark's capture, whose one profiling run passes the same check.
func (b Benchmark) Run() (*RunResult, error) {
	return benchRun(b, func(t target) (*RunResult, error) {
		mc, err := NewMachine(t.p)
		if err == nil {
			err = t.setup(mc.Memory())
		}
		if err != nil {
			return nil, err
		}
		res, err := mc.Run()
		if err != nil {
			return nil, err
		}
		return res, t.check(mc.Memory())
	})
}

// MeasureWithCache runs the cached-system study (see MeasureWithCache)
// on the benchmark, over the capture its Measure calls share.
func (b Benchmark) MeasureWithCache(cache CacheConfig, enc Config) (*CacheMeasurement, error) {
	return benchRun(b, func(t target) (*CacheMeasurement, error) { return measureWithCache(t, cache, enc) })
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
	return benchRun(b, func(t target) ([]Measurement, error) { return replayMeasureCtx(ctx, t, cols) })
}

// SimulateMeasure is Measure without the capture/replay engine: the
// reference two-run MeasureProgram pipeline, simulating the kernel anew.
func (b Benchmark) SimulateMeasure(cfgs ...Config) ([]Measurement, error) {
	return benchRun(b, func(t target) ([]Measurement, error) { return MeasureProgram(t.p, t.setup, cfgs...) })
}
