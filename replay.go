package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/cfg"
	"imtrans/internal/power"
	"imtrans/internal/replay"
	"imtrans/internal/scheme"
)

// StreamingReplay reports whether the streaming replay model is active.
//
// Deprecated: the streaming image model is the only replay model, so
// StreamingReplay always returns true.
func StreamingReplay() bool { return true }

// SetFleetBatchReplay switches the related-work scheme fleet between the
// word-parallel batch kernels over the shared transition stream (on, the
// default) and the per-word reference coders (off), returning the
// previous setting. Measurements are bit-identical in both modes; only
// wall time changes.
func SetFleetBatchReplay(on bool) bool { return scheme.SetBatchReplay(on) }

// ReplayMeasure produces the same measurements as MeasureProgram — bit for
// bit — from a single profiling run per program. The run's fetch stream is
// captured as a compressed text-index trace (cached in-process by program
// content hash), and each configuration is evaluated by replaying the
// trace against its encoded image: the decoder model is driven through
// every covered-block fetch with full restoration checks, while uncovered
// sequential stretches and periodic loop bodies are totalled analytically
// from the static image. Configurations are evaluated concurrently (see
// SetParallelism) with deterministic output ordering. A configuration
// outside the paper scheme's ConfigSpace is refused before the profiling
// run.
//
// The setup callback must be a deterministic function of the program, the
// same contract MeasureProgram imposes; callers whose setup varies
// independently of the program image must route the variation through the
// program (or use MeasureProgram, which never caches).
func ReplayMeasure(p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	return ReplayMeasureCtx(context.Background(), p, setup, cfgs...)
}

// ReplayMeasureCtx is ReplayMeasure with cooperative cancellation: the
// context is polled inside the profiling run, before each bit line the
// encoder encodes and in the replay fetch loop, so cancellation takes
// effect within one task granule. A cancelled run returns ctx.Err()
// (possibly wrapped) and no results.
func ReplayMeasureCtx(ctx context.Context, p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	cols, err := paperColumns(cfgs)
	if err != nil {
		return nil, err
	}
	return replayMeasureCtx(ctx, p, setup, "", cols)
}

// CaptureCacheStats reports hits and misses of the process-wide fetch-trace
// capture cache (misses equal full profiling simulations performed).
func CaptureCacheStats() (hits, misses uint64) { return replay.Shared.Stats() }

// SetCaptureCacheLimit bounds the process-wide capture cache to n entries
// (clamped to at least 1) and returns the previous bound. When the cache
// exceeds the bound, the oldest-inserted captures are evicted first. The
// default bound is replay.DefaultCacheLimit (128 entries).
func SetCaptureCacheLimit(n int) int { return replay.Shared.SetLimit(n) }

// PurgeCaptureCache releases every cached fetch-trace capture while
// keeping the cache statistics — the memory-pressure valve for long-lived
// sweep services.
func PurgeCaptureCache() { replay.Shared.Purge() }

// ClearCaptureCache drops every cached fetch-trace capture and resets the
// cache statistics.
func ClearCaptureCache() { replay.Shared.Clear() }

// replayMeasureCtx measures one program's paper columns as a one-row grid.
func replayMeasureCtx(ctx context.Context, p *Program, setup func(Memory) error, salt string, cols []gridColumn[Measurement]) ([]Measurement, error) {
	run, err := runGrid(ctx, &gridSpec[Measurement]{
		rows:    1,
		capture: func(ctx context.Context, _ int) (*replay.Capture, error) { return captureProgram(ctx, p, setup, salt) },
		cols:    cols,
	}, SweepOptions{})
	if err != nil {
		return nil, err
	}
	if run.ctxErr != nil {
		return nil, run.ctxErr
	}
	if len(run.errs) > 0 {
		return nil, run.errs[0].err
	}
	return run.vals[0], nil
}

// SweepMeasure evaluates every (benchmark, configuration) pair of a grid,
// sharing one capture per benchmark and fanning the encode+replay work
// over a bounded worker pool. parallelism <= 0 means GOMAXPROCS. The
// result is indexed [benchmark][config]; ordering, values, and the error
// returned are independent of parallelism.
//
// SweepMeasure is the fail-fast legacy form: the first cell failure (in
// grid order) aborts the whole sweep. SweepMeasureCtx adds cancellation,
// per-cell fault isolation and checkpoint-resume.
func SweepMeasure(benchmarks []Benchmark, cfgs []Config, parallelism int) ([][]Measurement, error) {
	res, err := SweepMeasureCtx(context.Background(), benchmarks, cfgs, SweepOptions{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	if len(res.Errors) > 0 {
		return nil, &res.Errors[0]
	}
	return res.Measurements, nil
}

// captureProgram returns the (possibly cached) capture for a program,
// profiling it at most once per content hash across the process. The
// profiling run polls ctx; a cancelled capture is not cached.
func captureProgram(ctx context.Context, p *Program, setup func(Memory) error, salt string) (*replay.Capture, error) {
	key := replay.ProgramKey(p.TextBase, p.Text, p.DataBase, p.Data, salt)
	return replay.Shared.GetOrCaptureCtx(ctx, key, func(ctx context.Context) (*replay.Capture, error) {
		c, err := captureRun(ctx, p, setup)
		if err != nil {
			return nil, err
		}
		c.Key = key
		return c, nil
	})
}

// captureRun performs the single profiling simulation behind a capture.
// The run only simulates and folds: the CPU reports each straight-line
// span of fetches at its control transfer, the trace builder folds the
// spans (its loop-body cursor appends most tokens of a hot loop without
// a tandem scan), and deriveTotals then fills the
// configuration-independent totals from the folded trace.
func captureRun(ctx context.Context, p *Program, setup func(Memory) error) (*replay.Capture, error) {
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	builder := replay.NewBuilder()
	base := p.TextBase
	m1.OnSpan = func(first, last uint32) { builder.Span(int(first-base)/4, int(last-base)/4) }
	if err := m1.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("imtrans: profiling run: %w", err)
	}
	words := append([]uint32(nil), p.Text...)
	g, err := cfg.Build(base, words)
	if err != nil {
		return nil, err
	}
	c := &replay.Capture{
		Base:         base,
		Words:        words,
		Graph:        g,
		Trace:        builder.Trace(),
		Profile:      append([]uint64(nil), m1.Profile()...),
		Instructions: m1.InstCount,
	}
	if err := deriveTotals(ctx, c); err != nil {
		return nil, fmt.Errorf("imtrans: capture totals: %w", err)
	}
	return c, nil
}

// deriveTotals fills a capture's configuration-independent totals from
// its folded trace, where a loop whose state repeats costs a few passes
// of its body instead of one per fetch: the raw bus from the
// identity-encoding replay, and the comparators from the fleet's
// businvert (32 lines) and dictionary (256 entries) schemes at their
// defaults. Each walks the fetch stream MeasureProgram's in-loop
// comparators see, so the totals are the same.
func deriveTotals(ctx context.Context, c *replay.Capture) error {
	raw, err := replay.MeasureBaseline(ctx, c)
	if err != nil {
		return err
	}
	c.BaselineTotal, c.BaselinePerLine = raw.Encoded, raw.PerLineEncoded
	res, err := measureDefaults(ctx, c, "businvert", "dictionary")
	if err != nil {
		return err
	}
	c.BusInvertTotal = res[0].Transitions
	c.DictionaryTotal, c.DictionaryBits = res[1].Transitions, res[1].OverheadBits
	return nil
}

// measureDefaults measures a capture under the named fleet schemes at
// their default parameters, over one shared transition stream.
func measureDefaults(ctx context.Context, c *replay.Capture, names ...string) ([]*scheme.Result, error) {
	w := &scheme.Workload{Cap: c, Stream: scheme.NewStream(c)}
	res := make([]*scheme.Result, len(names))
	for i, name := range names {
		sc, err := scheme.Get(name)
		if err == nil {
			res[i], err = sc.Measure(ctx, w, scheme.Params{})
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// capturePaper profiles the program through the shared capture cache and
// runs the paper pipeline on the capture: the verified encoding, and a
// strict-decoder replay of the whole fetch stream that checks every
// restored word. A configuration outside the paper ConfigSpace is refused
// before the profiling run.
func capturePaper(ctx context.Context, p *Program, setup func(Memory) error, salt string, c Config) (*replay.Capture, scheme.PaperOutcome, error) {
	if err := c.validate(); err != nil {
		return nil, scheme.PaperOutcome{}, err
	}
	cap, err := captureProgram(ctx, p, setup, salt)
	if err != nil {
		return nil, scheme.PaperOutcome{}, err
	}
	out, err := scheme.MeasurePaper(ctx, &scheme.Workload{Cap: cap}, c.coreConfig())
	if err != nil {
		return nil, scheme.PaperOutcome{}, fmt.Errorf("imtrans: %v: %w", c, err)
	}
	return cap, out, nil
}

// memoSig returns the per-block encoding signature of a configuration.
// Per-block encoding is a pure function of (BlockSize, Funcs, Strategy,
// BusWidth) — the selection policy and table capacities only decide which
// blocks get covered — so configurations with equal signatures produce
// identical encoded words for every block they both cover, and their
// replays of one capture may share block-outcome memos.
func memoSig(c Config) string {
	cc := c.coreConfig()
	b := make([]byte, 0, 3+len(cc.Funcs))
	b = append(b, byte(cc.BlockSize), byte(cc.Strategy), byte(cc.BusWidth))
	for _, f := range cc.Funcs {
		b = append(b, byte(f))
	}
	return string(b)
}

// paperColumns returns one paper-pipeline grid column per configuration
// (the default configuration when cfgs is empty); columns with equal memo
// signatures share block-outcome memos. A configuration outside the
// paper ConfigSpace is refused before any column exists.
func paperColumns(cfgs []Config) ([]gridColumn[Measurement], error) {
	if len(cfgs) == 0 {
		cfgs = []Config{{}}
	}
	cols := make([]gridColumn[Measurement], len(cfgs))
	for i, c := range cfgs {
		if err := c.validate(); err != nil {
			return nil, err
		}
		cols[i] = gridColumn[Measurement]{
			measure: func(ctx context.Context, w *scheme.Workload) (Measurement, cellMemo, error) {
				return replayOneCtx(ctx, w, c)
			},
			share: gridShare{key: memoSig(c)},
		}
	}
	return cols, nil
}

// replayOneCtx evaluates one configuration against a workload's capture
// by running the paper pipeline through internal/scheme — plan the
// encoding from the cached profile, statically verify it, then replay the
// trace through a fresh strict decoder. Cancellation is polled before
// each bit line the encoder encodes and inside the replay fetch loop; a
// cancelled cell returns ctx.Err() wrapped with the configuration. The
// memo diagnostics accompany the Measurement for the grid counters.
func replayOneCtx(ctx context.Context, w *scheme.Workload, c Config) (Measurement, cellMemo, error) {
	out, err := scheme.MeasurePaper(ctx, w, c.coreConfig())
	if err != nil {
		return Measurement{}, cellMemo{}, fmt.Errorf("imtrans: %v: %w", c, err)
	}
	cap := w.Cap
	enc, dec, res := out.Enc, out.Dec, out.Rep
	m := Measurement{
		Config:          c,
		Instructions:    cap.Instructions,
		Baseline:        cap.BaselineTotal,
		Encoded:         res.Encoded,
		BusInvert:       cap.BusInvertTotal,
		Dictionary:      cap.DictionaryTotal,
		DictionaryBits:  cap.DictionaryBits,
		CoveragePercent: enc.Coverage(),
		CoveredBlocks:   len(enc.Plans),
		TTEntriesUsed:   enc.TTUsed,
		StaticPercent:   enc.StaticReduction(),
		OverheadBits:    dec.Overhead().TotalBits,
		PerLineBaseline: append([]uint64(nil), cap.BaselinePerLine...),
		PerLineEncoded:  res.PerLineEncoded,
	}
	m.Percent = power.Reduction(m.Baseline, m.Encoded)
	m.BusInvertPercent = power.Reduction(m.Baseline, m.BusInvert)
	m.DictionaryPercent = power.Reduction(m.Baseline, m.Dictionary)
	m.EnergySavedOnChipJ, _ = power.OnChip.Saved(m.Baseline, m.Encoded)
	m.EnergySavedOffChipJ, _ = power.OffChip.Saved(m.Baseline, m.Encoded)
	return m, cellMemo{blocks: res.MemoBlocks, shared: res.MemoShared, hits: res.MemoHits}, nil
}
