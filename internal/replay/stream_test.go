package replay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/cpu"
	"imtrans/internal/hw"
	"imtrans/internal/trace"
	"imtrans/internal/transform"
)

// streamLoopSrc has a hot inner loop nested in an outer loop plus cold
// straight-line stretches, so its trace exercises runs, branch landings
// and repeat groups.
const streamLoopSrc = `
	li   $t0, 40
	li   $t4, 0
outer:
	li   $t1, 50
	li   $t2, 1
inner:
	addu $t2, $t2, $t1
	sll  $t3, $t2, 1
	xor  $t2, $t2, $t3
	srl  $t3, $t2, 3
	addu $t4, $t4, $t3
	addiu $t1, $t1, -1
	bgtz $t1, inner
	addiu $t0, $t0, -1
	bgtz $t0, outer
	li $v0, 10
	syscall
`

// captureSource assembles and runs src, returning a replay capture of its
// fetch stream — the internal-package equivalent of the facade's capture
// path, without the Bus-Invert and dictionary comparators. The baseline
// totals come from a trace.Bus driven on every fetch of the run: the
// per-fetch reference MeasureBaseline is checked against.
func captureSource(t testing.TB, src string) *Capture {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, nil)
	if err != nil {
		t.Fatalf("cpu: %v", err)
	}
	b := NewBuilder()
	bus := trace.NewBus(32)
	c.OnFetch = func(pc, word uint32) {
		b.Add(int(pc-obj.TextBase) / 4)
		bus.Transfer(word)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := cfg.Build(obj.TextBase, obj.TextWords)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return &Capture{
		Base:            obj.TextBase,
		Words:           obj.TextWords,
		Graph:           g,
		Trace:           b.Trace(),
		Profile:         append([]uint64(nil), c.Profile()...),
		Instructions:    c.InstCount,
		BaselineTotal:   bus.Total(),
		BaselinePerLine: bus.PerLine(),
	}
}

// encodeFor plans cp's encoding under cfg.
func encodeFor(t testing.TB, cp *Capture, cfg core.Config) *core.Encoding {
	t.Helper()
	enc, err := core.Encode(cp.Graph, cp.Profile, cfg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return enc
}

// strictDecoder builds the fresh strict decoder a replay drives.
func strictDecoder(t testing.TB, enc *core.Encoding) *hw.Decoder {
	t.Helper()
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	dec.Strict = true
	return dec
}

// measureWith encodes cp under cfg and replays it with the given options
// on a fresh strict decoder.
func measureWith(t testing.TB, cp *Capture, cfg core.Config, opts Options) Result {
	t.Helper()
	enc := encodeFor(t, cp, cfg)
	res, err := MeasureOpts(nil, cp, enc, strictDecoder(t, enc), opts)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	return res
}

// naiveMeasure is the per-fetch reference for MeasureOpts. It expands the
// trace and drives a fresh strict decoder on every fetched index, checks
// every restored word, and sums the XOR popcounts of the encoded bus in
// total and per line. It has no coverage table, no memo and no
// fast-forward, so each replay shortcut is checked against plain
// iteration.
func naiveMeasure(t testing.TB, cp *Capture, cfg core.Config) Result {
	t.Helper()
	enc := encodeFor(t, cp, cfg)
	dec := strictDecoder(t, enc)
	bus := trace.NewBus(32)
	var err error
	cp.Trace.Indices(func(idx int32) {
		if err != nil {
			return
		}
		w := enc.EncodedWords[idx]
		bus.Transfer(w)
		pc := cp.Base + uint32(idx)<<2
		var restored uint32
		if restored, err = dec.OnFetch(pc, w); err == nil && restored != cp.Words[idx] {
			err = fmt.Errorf("decoder restored %#08x at pc %#x, want %#08x", restored, pc, cp.Words[idx])
		}
	})
	if err != nil {
		t.Fatalf("naive walk: %v", err)
	}
	return Result{Encoded: bus.Total(), PerLineEncoded: bus.PerLine()}
}

// sameTotals reports whether two results agree on the measured totals;
// the memo diagnostics are not part of the measurement.
func sameTotals(a, b Result) bool {
	return a.Encoded == b.Encoded && reflect.DeepEqual(a.PerLineEncoded, b.PerLineEncoded)
}

// TestReplayMatchesNaive checks the replay against the per-fetch walk,
// total and per line, under configurations that vary block size, table
// capacity, selection and the function set. Each configuration must also
// record and serve block memos, so the memo paths are part of what is
// checked.
func TestReplayMatchesNaive(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cfgs := []core.Config{
		{},
		{BlockSize: 4},
		{BlockSize: 7, TTEntries: 32},
		{TTEntries: 4},
		{Selection: core.Knapsack},
		{Funcs: transform.Canonical8[:4]},
	}
	for _, cfg := range cfgs {
		want := naiveMeasure(t, cp, cfg)
		got := measureWith(t, cp, cfg, Options{})
		if !sameTotals(got, want) {
			t.Errorf("config %+v: replay %d %v != naive %d %v",
				cfg, got.Encoded, got.PerLineEncoded, want.Encoded, want.PerLineEncoded)
		}
		if got.MemoBlocks == 0 || got.MemoHits == 0 {
			t.Errorf("config %+v: memo idle (blocks %d, hits %d); test is not exercising the memo paths",
				cfg, got.MemoBlocks, got.MemoHits)
		}
	}
}

// TestStreamingStateIsBlockBounded whitebox-checks the replay working
// set: the span table holds one entry per covered block, never more, and
// every memo the replay recorded sits in its block's span.
func TestStreamingStateIsBlockBounded(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	enc := encodeFor(t, cp, core.Config{})
	ss := new(streamScratch)
	res, err := measure(nil, cp, enc, strictDecoder(t, enc), Options{}, ss)
	if err != nil {
		t.Fatal(err)
	}
	if got, max := cap(ss.spans), len(enc.Plans); got > max {
		t.Errorf("span table capacity %d exceeds covered-block count %d", got, max)
	}
	memos := 0
	for _, sp := range ss.spans {
		if sp.memo != nil {
			memos++
		}
	}
	if memos == 0 || memos != res.MemoBlocks {
		t.Errorf("span table holds %d memos, replay recorded %d", memos, res.MemoBlocks)
	}
}

// TestMemoStoreSharing replays one capture under four configurations that
// share the per-block signature but disagree on selection and capacity.
// With a shared store, later cells must adopt earlier cells' memos (fewer
// local recordings, MemoShared > 0) and still produce totals identical to
// unshared replays.
func TestMemoStoreSharing(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	cfgs := []core.Config{
		{},
		{TTEntries: 32},
		{TTEntries: 8, BBITEntries: 4},
		{Selection: core.Knapsack},
	}
	store := NewMemoStore()
	var recorded, adopted int
	for i, cfg := range cfgs {
		solo := measureWith(t, cp, cfg, Options{})
		shared := measureWith(t, cp, cfg, Options{Shared: store})
		if !sameTotals(solo, shared) {
			t.Fatalf("config %d: shared-store totals diverge: %d != %d", i, shared.Encoded, solo.Encoded)
		}
		recorded += shared.MemoBlocks
		adopted += shared.MemoShared
		if i > 0 && shared.MemoShared == 0 {
			t.Errorf("config %d adopted no shared memos", i)
		}
	}
	if adopted == 0 {
		t.Fatal("no memo crossed configurations")
	}
	if store.Blocks() == 0 || store.Hits() == 0 {
		t.Errorf("store stats idle: %d blocks, %d hits", store.Blocks(), store.Hits())
	}
	// Every distinct covered block is recorded exactly once across the
	// group: total local recordings equal the store population.
	if recorded != store.Blocks() {
		t.Errorf("%d local recordings for %d distinct blocks: duplicate first walks", recorded, store.Blocks())
	}
}

// TestMemoStoreConcurrent races many measures of the same signature group
// against one store; -race proves the publication protocol, equality
// with the per-fetch walk proves results stay exact under interleaving.
func TestMemoStoreConcurrent(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	want := naiveMeasure(t, cp, core.Config{})
	store := NewMemoStore()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc, err := core.Encode(cp.Graph, cp.Profile, core.Config{})
			if err != nil {
				errs[g] = err
				return
			}
			dec, err := hw.NewDecoder(enc)
			if err != nil {
				errs[g] = err
				return
			}
			dec.Strict = true
			res, err := MeasureOpts(nil, cp, enc, dec, Options{Shared: store})
			if err != nil {
				errs[g] = err
				return
			}
			if !sameTotals(res, want) {
				errs[g] = fmt.Errorf("total %d, want %d", res.Encoded, want.Encoded)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// countdownCtx counts Err() polls and reports cancellation from the
// fire-th poll on — a deterministic probe for the replay loops' poll
// points, unlike timer-based cancellation.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	fire  int64 // 0 = never fire, only count
}

func (c *countdownCtx) Err() error {
	if n := c.polls.Add(1); c.fire > 0 && n >= c.fire {
		return context.Canceled
	}
	return nil
}

// TestCancellationPollParity pins the replay's cancellation contract:
// the context is polled once per trace op plus once every
// CancelCheckStride fetch steps inside runs, so a trace of this size is
// polled more than once, and a context that fires at a mid-replay poll
// aborts the replay with ctx.Err().
func TestCancellationPollParity(t *testing.T) {
	cp := captureSource(t, streamLoopSrc)
	run := func(ctx context.Context) error {
		enc := encodeFor(t, cp, core.Config{})
		_, err := MeasureOpts(ctx, cp, enc, strictDecoder(t, enc), Options{})
		return err
	}

	ctr := &countdownCtx{Context: context.Background()}
	if err := run(ctr); err != nil {
		t.Fatal(err)
	}
	polls := ctr.polls.Load()
	if polls < 2 {
		t.Fatalf("only %d polls over the whole trace; mid-replay cancellation has no coverage", polls)
	}

	// Fire at a poll in the middle of the replay: the replay must stop
	// there and surface the context error.
	ctr = &countdownCtx{Context: context.Background(), fire: polls / 2}
	if err := run(ctr); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-replay cancellation returned %v, want context.Canceled", err)
	}
}
