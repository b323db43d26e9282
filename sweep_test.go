package imtrans

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"imtrans/internal/runsafe"
)

// sweepTestBenches returns a small grid of paper kernels at test scales.
func sweepTestBenches(t *testing.T, names ...string) []Benchmark {
	t.Helper()
	out := make([]Benchmark, 0, len(names))
	for _, n := range names {
		b, err := BenchmarkByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testScale(b))
	}
	return out
}

var sweepTestConfigs = []Config{{BlockSize: 4}, {BlockSize: 5, TTEntries: 4}}

// TestSweepPanicIsolation is the tentpole acceptance check: a worker that
// panics on one grid cell must not crash the process or poison the rest
// of the grid — every other cell completes and the failure surfaces as a
// typed SweepError naming the kernel and configuration.
func TestSweepPanicIsolation(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul", "sor", "lu")
	plan := SweepFaultPlan{PanicCells: [][2]int{{1, 0}}}
	res, err := SweepMeasureCtx(context.Background(), benches, sweepTestConfigs, SweepOptions{
		FaultInject: plan.Injector(),
	})
	if err != nil {
		t.Fatalf("SweepMeasureCtx: %v", err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("got %d sweep errors, want 1: %v", len(res.Errors), res.Errors)
	}
	se := &res.Errors[0]
	if se.Benchmark != "sor" || se.BenchIndex != 1 || se.ConfigIndex != 0 || se.Stage != "measure" {
		t.Errorf("SweepError misidentifies the cell: %+v", se)
	}
	var pe *runsafe.PanicError
	if !errors.As(se.Err, &pe) {
		t.Errorf("SweepError.Err = %v, want a *runsafe.PanicError", se.Err)
	}
	for bi := range benches {
		for ci := range sweepTestConfigs {
			wantDone := !(bi == 1 && ci == 0)
			if res.Done[bi][ci] != wantDone {
				t.Errorf("cell (%d,%d) done = %v, want %v", bi, ci, res.Done[bi][ci], wantDone)
			}
		}
	}
	if got := res.Counters.Get("sweep_panics"); got != 1 {
		t.Errorf("sweep_panics = %d, want 1", got)
	}
	if got := res.Counters.Get("sweep_failed"); got != 1 {
		t.Errorf("sweep_failed = %d, want 1", got)
	}
}

// TestSweepRetryRecoversTransientFault injects a fault that fails only
// the first attempt of one cell: the retry policy must recover it and the
// sweep must report a full grid with retries counted.
func TestSweepRetryRecoversTransientFault(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul", "fft")
	plan := SweepFaultPlan{
		PanicCells:   [][2]int{{0, 1}},
		ErrorCells:   [][2]int{{1, 0}},
		FailAttempts: 1,
	}
	res, err := SweepMeasureCtx(context.Background(), benches, sweepTestConfigs, SweepOptions{
		Retry:       RetryPolicy{MaxAttempts: 3},
		FaultInject: plan.Injector(),
	})
	if err != nil {
		t.Fatalf("SweepMeasureCtx: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("sweep errors after retry: %v", res.Errors)
	}
	if res.Completed != len(benches)*len(sweepTestConfigs) {
		t.Errorf("Completed = %d, want %d", res.Completed, len(benches)*len(sweepTestConfigs))
	}
	if got := res.Counters.Get("sweep_retries"); got != 2 {
		t.Errorf("sweep_retries = %d, want 2", got)
	}
	// The recovered cells must be bit-identical to an unsupervised run.
	want, err := benches[0].Measure(sweepTestConfigs...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Measurements[0], want) {
		t.Error("retried sweep measurements differ from direct Measure")
	}
}

// TestSweepCancellation pre-cancels the context: the sweep must stop
// without measuring anything, return the partial result, and wrap
// context.Canceled.
func TestSweepCancellation(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul", "sor")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SweepMeasureCtx(ctx, benches, sweepTestConfigs, SweepOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	cellCount := len(benches) * len(sweepTestConfigs)
	if res.Cancelled != cellCount {
		t.Errorf("Cancelled = %d, want %d", res.Cancelled, cellCount)
	}
	if got := res.Counters.Get("sweep_cancelled"); got != uint64(cellCount) {
		t.Errorf("sweep_cancelled counter = %d, want %d", got, cellCount)
	}
	if len(res.Errors) != 0 {
		t.Errorf("cancellation produced sweep errors: %v", res.Errors)
	}
}

// TestSweepMidRunCancellation cancels after the first few cells start:
// the sweep stops within a task granule, keeps the completed cells, and
// wraps context.Canceled.
func TestSweepMidRunCancellation(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul", "sor", "lu")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	res, err := SweepMeasureCtx(ctx, benches, sweepTestConfigs, SweepOptions{
		Parallelism: 1,
		FaultInject: func(bench, config, attempt int) error {
			if started.Add(1) == 3 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Completed == 0 || res.Cancelled == 0 {
		t.Errorf("Completed = %d, Cancelled = %d; want both nonzero", res.Completed, res.Cancelled)
	}
	for bi := range res.Done {
		for ci, done := range res.Done[bi] {
			if done && res.Measurements[bi][ci].Baseline == 0 {
				t.Errorf("cell (%d,%d) marked done but empty", bi, ci)
			}
		}
	}
}

// TestSweepCheckpointResumeBitIdentical is the resume acceptance check
// over all six paper kernels: a sweep interrupted mid-run and resumed
// from its journal must produce measurements bit-identical to an
// uninterrupted sweep.
func TestSweepCheckpointResumeBitIdentical(t *testing.T) {
	benches := sweepTestBenches(t, "mmul", "sor", "ej", "fft", "tri", "lu")
	cfgs := sweepTestConfigs

	ClearCaptureCache()
	want, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{})
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}
	if got := want.Err(); got != nil {
		t.Fatalf("uninterrupted sweep errors: %v", got)
	}

	path := filepath.Join(t.TempDir(), "sweep.checkpoint")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	ClearCaptureCache()
	partial, err := SweepMeasureCtx(ctx, benches, cfgs, SweepOptions{
		Parallelism: 1,
		Checkpoint:  path,
		FaultInject: func(bench, config, attempt int) error {
			if started.Add(1) == 5 {
				cancel() // the "kill" halfway through the grid
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want wrapped context.Canceled", err)
	}
	if partial.Completed == 0 {
		t.Fatal("interrupted sweep journalled nothing; the resume test needs progress")
	}

	ClearCaptureCache()
	resumed, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{
		Checkpoint: path,
	})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := resumed.Err(); got != nil {
		t.Fatalf("resumed sweep errors: %v", got)
	}
	if resumed.Restored != partial.Completed {
		t.Errorf("Restored = %d, want %d (the interrupted run's completed cells)",
			resumed.Restored, partial.Completed)
	}
	if resumed.Restored+resumed.Completed != len(benches)*len(cfgs) {
		t.Errorf("restored %d + completed %d != %d cells",
			resumed.Restored, resumed.Completed, len(benches)*len(cfgs))
	}
	if !reflect.DeepEqual(resumed.Measurements, want.Measurements) {
		t.Error("resumed sweep is not bit-identical to the uninterrupted sweep")
	}

	// Resuming a complete journal restores everything and measures nothing.
	again, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{Checkpoint: path})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if again.Completed != 0 || again.Restored != len(benches)*len(cfgs) {
		t.Errorf("second resume: Completed = %d, Restored = %d", again.Completed, again.Restored)
	}
	if !reflect.DeepEqual(again.Measurements, want.Measurements) {
		t.Error("fully restored sweep is not bit-identical")
	}
}

// TestSweepCheckpointGridMismatch asserts a journal written for one grid
// refuses to resume a different one.
func TestSweepCheckpointGridMismatch(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul")
	path := filepath.Join(t.TempDir(), "sweep.checkpoint")
	if _, err := SweepMeasureCtx(context.Background(), benches, sweepTestConfigs, SweepOptions{Checkpoint: path}); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	other := []Config{{BlockSize: 6}}
	if _, err := SweepMeasureCtx(context.Background(), benches, other, SweepOptions{Checkpoint: path}); err == nil {
		t.Fatal("journal from a different grid was accepted")
	}
}

// TestSweepBreakerFailsFast trips the circuit breaker with permanent
// faults: once open, remaining cells are refused with ErrSweepTripped
// instead of being ground through.
func TestSweepBreakerFailsFast(t *testing.T) {
	ClearCaptureCache()
	benches := sweepTestBenches(t, "mmul")
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}
	plan := SweepFaultPlan{ErrorCells: [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}}}
	res, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{
		Parallelism:      1,
		BreakerThreshold: 2,
		FaultInject:      plan.Injector(),
	})
	if err != nil {
		t.Fatalf("SweepMeasureCtx: %v", err)
	}
	if len(res.Errors) != len(cfgs) {
		t.Fatalf("got %d errors, want %d", len(res.Errors), len(cfgs))
	}
	tripped := 0
	for i := range res.Errors {
		if errors.Is(res.Errors[i].Err, ErrSweepTripped) {
			tripped++
		}
	}
	if tripped != 2 {
		t.Errorf("tripped cells = %d, want 2 (threshold 2 of 4 failing cells)", tripped)
	}
	if got := res.Counters.Get("sweep_breaker_tripped"); got != uint64(tripped) {
		t.Errorf("sweep_breaker_tripped = %d, want %d", got, tripped)
	}
}

// TestSweepCaptureFailureIsolated gives the grid one benchmark that can
// never assemble: its cells are skipped with a capture-stage SweepError
// while the healthy benchmark completes.
func TestSweepCaptureFailureIsolated(t *testing.T) {
	ClearCaptureCache()
	good := sweepTestBenches(t, "mmul")[0]
	bad := Benchmark{Name: "bogus"} // no workload behind it
	res, err := SweepMeasureCtx(context.Background(), []Benchmark{bad, good}, sweepTestConfigs, SweepOptions{})
	if err != nil {
		t.Fatalf("SweepMeasureCtx: %v", err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(res.Errors), res.Errors)
	}
	se := &res.Errors[0]
	if se.Stage != "capture" || se.BenchIndex != 0 || se.ConfigIndex != -1 || se.Benchmark != "bogus" {
		t.Errorf("capture failure misreported: %+v", se)
	}
	for ci := range sweepTestConfigs {
		if res.Done[0][ci] {
			t.Errorf("cell (0,%d) of the broken benchmark marked done", ci)
		}
		if !res.Done[1][ci] {
			t.Errorf("cell (1,%d) of the healthy benchmark not measured", ci)
		}
	}
	if got := res.Counters.Get("sweep_skipped"); got != uint64(len(sweepTestConfigs)) {
		t.Errorf("sweep_skipped = %d, want %d", got, len(sweepTestConfigs))
	}
}

// TestSweepMeasureLegacyFailFast asserts the legacy facade still fails
// fast, now with a typed, kernel-identifying error.
func TestSweepMeasureLegacyFailFast(t *testing.T) {
	ClearCaptureCache()
	bad := Benchmark{Name: "bogus"}
	_, err := SweepMeasure([]Benchmark{bad}, sweepTestConfigs, 1)
	if err == nil {
		t.Fatal("SweepMeasure accepted a broken benchmark")
	}
	var se *SweepError
	if !errors.As(err, &se) || se.Benchmark != "bogus" {
		t.Errorf("err = %v, want a *SweepError naming the kernel", err)
	}
}

func TestParseSweepFaultPlan(t *testing.T) {
	plan, err := ParseSweepFaultPlan("panic@0,1; error@2,0 ;attempts=1")
	if err != nil {
		t.Fatal(err)
	}
	want := SweepFaultPlan{
		PanicCells:   [][2]int{{0, 1}},
		ErrorCells:   [][2]int{{2, 0}},
		FailAttempts: 1,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("plan = %+v, want %+v", plan, want)
	}
	for _, bad := range []string{"panic@x,1", "boom@0,1", "panic@1", "attempts=-2", "panic@-1,0"} {
		if _, err := ParseSweepFaultPlan(bad); err == nil {
			t.Errorf("ParseSweepFaultPlan(%q) accepted", bad)
		}
	}
}

// TestMeasureCtxCancelled asserts the per-benchmark ctx facade stops and
// reports cancellation.
func TestMeasureCtxCancelled(t *testing.T) {
	ClearCaptureCache()
	b := sweepTestBenches(t, "mmul")[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.MeasureCtx(ctx, sweepTestConfigs...); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureCtx err = %v, want wrapped context.Canceled", err)
	}
}

// expiringCtx is a context whose deadline passes when expire is called,
// so a test can end it at a chosen moment rather than on a timer.
type expiringCtx struct {
	context.Context
	done chan struct{}
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) expire()               { close(c.done) }
func (c *expiringCtx) Done() <-chan struct{} { return c.done }
func (c *expiringCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestSweepCaptureDeadlineNotShared: two sweeps need the same cold
// capture. The one leading it reaches its deadline mid-capture, while
// the other waits on that capture: the first returns
// context.DeadlineExceeded, and the second, whose context is live,
// captures again instead of inheriting that error and gets the numbers
// of an uncancelled run.
func TestSweepCaptureDeadlineNotShared(t *testing.T) {
	b, err := BenchmarkByName("mmul")
	if err != nil {
		t.Fatal(err)
	}
	benches := []Benchmark{b.WithScale(96, 0)} // a cold capture takes ~0.1 s
	ClearCaptureCache()
	want, err := SweepMeasure(benches, sweepTestConfigs, 0)
	if err != nil {
		t.Fatal(err)
	}

	ClearCaptureCache()
	ctx := newExpiringCtx()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := SweepMeasureCtx(ctx, benches, sweepTestConfigs, SweepOptions{})
		leaderErr <- err
	}()
	for _, misses := CaptureCacheStats(); misses == 0; _, misses = CaptureCacheStats() {
		time.Sleep(time.Millisecond) // until the first sweep leads the capture
	}
	type sweep struct {
		res *SweepResult
		err error
	}
	live := make(chan sweep, 1)
	go func() {
		res, err := SweepMeasureCtx(context.Background(), benches, sweepTestConfigs, SweepOptions{})
		live <- sweep{res, err}
	}()
	for hits, _ := CaptureCacheStats(); hits == 0; hits, _ = CaptureCacheStats() {
		time.Sleep(time.Millisecond) // until the second sweep waits on it
	}
	ctx.expire()

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired sweep err = %v, want wrapped context.DeadlineExceeded", err)
	}
	got := <-live
	if got.err != nil {
		t.Fatalf("live sweep: %v", got.err)
	}
	if !reflect.DeepEqual(got.res.Measurements, want) {
		t.Fatal("live sweep differs from an uncancelled run")
	}
	if _, misses := CaptureCacheStats(); misses != 2 {
		t.Fatalf("capture misses = %d, want 2 (the expired capture, then the live one)", misses)
	}
}

// TestSetParallelismContract asserts clamping and previous-value return.
func TestSetParallelismContract(t *testing.T) {
	orig := SetParallelism(3)
	defer SetParallelism(orig)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d, want 3", got)
	}
	if prev := SetParallelism(0); prev != 3 {
		t.Errorf("SetParallelism(0) returned %d, want previous 3", prev)
	}
	if got := Parallelism(); got != 1 {
		t.Errorf("Parallelism after clamp = %d, want 1", got)
	}
	if prev := SetParallelism(-7); prev != 1 {
		t.Errorf("SetParallelism(-7) returned %d, want 1", prev)
	}
	if got := Parallelism(); got != 1 {
		t.Errorf("Parallelism after negative clamp = %d, want 1", got)
	}
}

// TestSweepProgressReporting asserts the Progress callback contract: the
// restored count is reported up front, every completed cell is reported,
// counts never decrease, and the final report covers the whole grid.
func TestSweepProgressReporting(t *testing.T) {
	ClearCaptureCache()
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	benches := sweepTestBenches(t, "mmul", "sor")
	cfgs := sweepTestConfigs
	total := len(benches) * len(cfgs)

	var calls []int
	record := func(done, tot int) {
		if tot != total {
			t.Errorf("Progress total = %d, want %d", tot, total)
		}
		calls = append(calls, done)
	}
	// Serial run so the callback slice needs no locking.
	if _, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{
		Parallelism: 1, Checkpoint: path, Progress: record,
	}); err != nil {
		t.Fatalf("SweepMeasureCtx: %v", err)
	}
	if len(calls) != total+1 {
		t.Fatalf("progress calls = %v, want the restored report plus one per cell", calls)
	}
	if calls[0] != 0 {
		t.Fatalf("first progress report = %d, want 0 restored", calls[0])
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] < calls[i-1] {
			t.Fatalf("progress went backwards: %v", calls)
		}
	}
	if calls[len(calls)-1] != total {
		t.Fatalf("final progress = %d, want %d", calls[len(calls)-1], total)
	}

	// A resumed run reports the journalled cells as already done before
	// any new work.
	calls = nil
	if _, err := SweepMeasureCtx(context.Background(), benches, cfgs, SweepOptions{
		Parallelism: 1, Checkpoint: path, Progress: record,
	}); err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if len(calls) == 0 || calls[0] != total {
		t.Fatalf("resumed progress = %v, want %d restored up front", calls, total)
	}
}
