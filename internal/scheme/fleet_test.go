package scheme

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"imtrans/internal/replay"
)

// synthCapture builds a randomised capture whose trace mixes the shapes
// the fleet engine specialises: long +1 runs (seq spans), tight loops
// (tandem-repeat groups the fast-forward charges analytically), strided
// walks and cold jumps (scalar steps). The word image is biased toward
// repeats so the dictionary and codebook kernels see real hits.
func synthCapture(seed int64, nWords, fetches int) *replay.Capture {
	r := rand.New(rand.NewSource(seed))
	words := make([]uint32, nWords)
	for i := range words {
		words[i] = r.Uint32()
	}
	for i := range words {
		if r.Intn(3) == 0 {
			words[i] = words[r.Intn(nWords)]
		}
	}

	b := replay.NewBuilder()
	var seq []int32
	idx := r.Intn(nWords / 2)
	add := func(i int) {
		b.Add(i)
		seq = append(seq, int32(i))
		idx = i
	}
	add(idx)
	for len(seq) < fetches {
		switch r.Intn(5) {
		case 0, 1: // sequential run
			n := 1 + r.Intn(48)
			for j := 0; j < n && idx+1 < nWords; j++ {
				add(idx + 1)
			}
		case 2: // loop: body + back jump, iterated — collapses to a repeat group
			body := 2 + r.Intn(5)
			if idx+body >= nWords {
				continue
			}
			start := idx
			for it, iters := 0, 2+r.Intn(10); it < iters; it++ {
				for j := 1; j <= body; j++ {
					add(start + j)
				}
				if it < iters-1 {
					add(start)
				}
			}
		case 3: // strided walk
			d := 2 + r.Intn(4)
			for j := 0; j < 6 && idx+d < nWords; j++ {
				add(idx + d)
			}
		default: // cold jump
			add(r.Intn(nWords))
		}
	}
	tr := b.Trace()

	prof := make([]uint64, nWords)
	var base uint64
	for i, ix := range seq {
		prof[ix]++
		if i > 0 {
			base += uint64(bits.OnesCount32(words[ix] ^ words[seq[i-1]]))
		}
	}
	return &replay.Capture{
		Base:          0x8000,
		Words:         words,
		Trace:         tr,
		Profile:       prof,
		Instructions:  tr.N,
		BaselineTotal: base,
	}
}

// fleetVariants lists the parameter points the differential tests sweep
// per fleet scheme: the default plus a knobbed point for every knob the
// scheme reads.
var fleetVariants = map[string][]Params{
	"businvert":  {{}, {BusWidth: 16}, {BusWidth: 21}},
	"gray":       {{}, {BusWidth: 20}},
	"t0":         {{}, {BusWidth: 16}},
	"dictionary": {{}, {Entries: 16}},
	"codebook":   {{}, {Entries: 64}},
	"lwc":        {{}, {Entries: 32, ExtraLines: 3}},
}

// measureMode runs one measurement with the batch kernels forced to the
// given mode, normalising the replay diagnostics (which legitimately
// differ between modes) so the rest of the Result can be compared whole.
func measureMode(t *testing.T, s Scheme, w *Workload, p Params, batch bool) *Result {
	t.Helper()
	prev := SetBatchReplay(batch)
	defer SetBatchReplay(prev)
	r, err := s.Measure(context.Background(), w, p)
	if err != nil {
		t.Fatalf("%s (batch=%v): %v", s.Name(), batch, err)
	}
	r.MemoHits = 0
	return r
}

// TestFleetBatchMatchesScalar is the differential property test of the
// tentpole: for every fleet scheme, every knob variant and a spread of
// randomised trace shapes, the word-parallel batch kernel must reproduce
// the per-word reference coder bit for bit — counts, percentages, energy
// and detail maps alike.
func TestFleetBatchMatchesScalar(t *testing.T) {
	for _, s := range All() {
		if s.Name() == "paper" {
			continue
		}
		variants, ok := fleetVariants[s.Name()]
		if !ok {
			t.Fatalf("scheme %q has no differential variants; add it to fleetVariants", s.Name())
		}
		t.Run(s.Name(), func(t *testing.T) {
			for vi, p := range variants {
				for seed := int64(1); seed <= 4; seed++ {
					cap := synthCapture(seed*71+int64(vi), 512, 6000)
					w := &Workload{Cap: cap}
					batch := measureMode(t, s, w, p, true)
					scalar := measureMode(t, s, w, p, false)
					if !reflect.DeepEqual(batch, scalar) {
						t.Fatalf("variant %d seed %d: batch diverged from scalar\n batch %+v\nscalar %+v",
							vi, seed, batch, scalar)
					}
				}
			}
		})
	}
}

// TestFleetSharedStreamAndMemo checks the cross-cell sharing layer: two
// equal-(scheme, spec) measurements attached to one Stream and one
// FleetMemo must (a) stay bit-identical to a private run and (b) serve
// the second cell's repeat groups from the shared store. The Stream is shared across all schemes
// (its derived tables are keyed), but each scheme gets its own FleetMemo:
// outcomes are exact only across equal-(scheme, spec) cells.
func TestFleetSharedStreamAndMemo(t *testing.T) {
	cap := synthCapture(97, 512, 8000)
	st := NewStream(cap)
	for _, s := range All() {
		if s.Name() == "paper" {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			memo := NewFleetMemo()
			private := measureMode(t, s, &Workload{Cap: cap}, Params{}, true)

			first, err := s.Measure(context.Background(), &Workload{Cap: cap, Stream: st, FleetShared: memo}, Params{})
			if err != nil {
				t.Fatal(err)
			}
			hitsBefore := memo.Hits()
			second, err := s.Measure(context.Background(), &Workload{Cap: cap, Stream: st, FleetShared: memo}, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if memo.Hits() <= hitsBefore {
				t.Errorf("shared memo served no outcomes to the second cell (hits %d -> %d)",
					hitsBefore, memo.Hits())
			}
			if second.MemoHits == 0 {
				t.Error("second measurement reports zero memo hits")
			}
			for _, r := range []*Result{first, second} {
				r.MemoHits = 0
			}
			if !reflect.DeepEqual(first, private) || !reflect.DeepEqual(second, private) {
				t.Errorf("shared-stream measurements diverged from the private run")
			}
			if memo.Outcomes() == 0 {
				t.Error("shared memo recorded no outcomes")
			}
		})
	}
}

// TestFleetStreamCaptureMismatch checks the guard behind Workload.Stream:
// a stream built from a different capture must be ignored, not read.
func TestFleetStreamCaptureMismatch(t *testing.T) {
	capA := synthCapture(5, 256, 3000)
	capB := synthCapture(6, 256, 3000)
	stale := NewStream(capB)
	s, err := Get("businvert")
	if err != nil {
		t.Fatal(err)
	}
	want := measureMode(t, s, &Workload{Cap: capA}, Params{}, true)
	got := measureMode(t, s, &Workload{Cap: capA, Stream: stale}, Params{}, true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stale stream changed the measurement:\n got %+v\nwant %+v", got, want)
	}
}

// countingCtx counts context polls and fails after fireAt of them —
// the probe behind the poll-schedule parity test.
type countingCtx struct {
	context.Context
	polls  atomic.Int64
	fireAt int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) >= c.fireAt && c.fireAt > 0 {
		return context.Canceled
	}
	return nil
}

// noopCoder drives the fleet engine with zero-cost hooks so the poll
// parity test observes the engine's schedule and nothing else.
type noopCoder struct{ fleetAcc }

func (*noopCoder) begin(int32)                {}
func (*noopCoder) step(int32)                 {}
func (*noopCoder) seq(int32, int32)           {}
func (*noopCoder) state(int32) fleetState     { return fleetState{} }
func (*noopCoder) setState(int32, fleetState) {}

// parityTrace builds a capture whose trace has long +1 runs straddling
// several poll strides, strided and jump steps, and loops of Repeat == 2
// only: the periodicity fast-forward needs Repeat >= 3 to skip stepped
// iterations (and with it their polls), so pairs keep the batch engine on
// the exact per-fetch schedule the scalar walk pays.
func parityTrace() *replay.Capture {
	n := 3 * int(replay.CancelCheckStride)
	words := make([]uint32, n)
	for i := range words {
		words[i] = uint32(i) * 0x9e3779b9
	}
	b := replay.NewBuilder()
	prof := make([]uint64, n)
	add := func(i int) { b.Add(i); prof[i]++ }
	add(0)
	for i := 1; i < n; i++ { // one run across three strides
		add(i)
	}
	for it := 0; it < 2; it++ { // Repeat==2 loop: stepped, never fast-forwarded
		for j := 10; j < 40; j++ {
			add(j)
		}
	}
	for i := 100; i > 40; i -= 3 { // strided scalar steps
		add(i)
	}
	tr := b.Trace()
	return &replay.Capture{Base: 0, Words: words, Trace: tr, Profile: prof,
		Instructions: tr.N, BaselineTotal: 1}
}

// TestFleetPollParity pins the shared cancellation schedule: the batch
// engine (chunked TickN over seq spans) and the scalar per-word walk
// (Tick per fetch) must poll the context exactly the same number of
// times on the same trace, and a context that fails at poll k must stop
// both paths with the same error.
func TestFleetPollParity(t *testing.T) {
	cap := parityTrace()

	countPolls := func(run func(ctx context.Context) error) int64 {
		c := &countingCtx{Context: context.Background()}
		if err := run(c); err != nil {
			t.Fatalf("uncancelled run failed: %v", err)
		}
		return c.polls.Load()
	}
	scalarPolls := countPolls(func(ctx context.Context) error {
		return replayIndices(ctx, cap, func(int32) {})
	})
	batchPolls := countPolls(func(ctx context.Context) error {
		_, err := runFleet(ctx, cap, &noopCoder{}, nil)
		return err
	})
	if scalarPolls != batchPolls {
		t.Fatalf("poll schedules diverged: scalar %d polls, batch %d", scalarPolls, batchPolls)
	}
	if scalarPolls == 0 {
		t.Fatal("trace too short to exercise the poll schedule")
	}

	// Cancellation at the first poll stops both paths.
	for name, run := range map[string]func(ctx context.Context) error{
		"scalar": func(ctx context.Context) error { return replayIndices(ctx, cap, func(int32) {}) },
		"batch": func(ctx context.Context) error {
			_, err := runFleet(ctx, cap, &noopCoder{}, nil)
			return err
		},
	} {
		c := &countingCtx{Context: context.Background(), fireAt: 1}
		if err := run(c); err != context.Canceled {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", name, err)
		}
	}
}

// TestFleetFastForward checks the repeat-aware analytic fast-forward: a
// heavily iterated loop must be charged arithmetically (MemoHits counts
// the skipped iterations), while staying bit-identical to the scalar
// walk of the fully expanded trace.
func TestFleetFastForward(t *testing.T) {
	const n = 256
	words := make([]uint32, n)
	r := rand.New(rand.NewSource(11))
	for i := range words {
		words[i] = r.Uint32()
	}
	b := replay.NewBuilder()
	prof := make([]uint64, n)
	add := func(i int) { b.Add(i); prof[i]++ }
	add(0)
	const iters = 5000
	for it := 0; it < iters; it++ { // one hot loop: body + back jump
		for j := 1; j <= 8; j++ {
			add(j)
		}
		if it < iters-1 {
			add(0)
		}
	}
	tr := b.Trace()
	if len(tr.Ops) == 0 {
		t.Fatal("builder did not compress the loop")
	}
	cap := &replay.Capture{Base: 0x8000, Words: words, Trace: tr, Profile: prof,
		Instructions: tr.N, BaselineTotal: 1}

	for _, s := range All() {
		if s.Name() == "paper" {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			prev := SetBatchReplay(true)
			defer SetBatchReplay(prev)
			batch, err := s.Measure(context.Background(), &Workload{Cap: cap}, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if batch.MemoHits < iters/2 {
				t.Errorf("fast-forward skipped only %d of %d iterations", batch.MemoHits, iters)
			}
			scalar := measureMode(t, s, &Workload{Cap: cap}, Params{}, false)
			batch.MemoHits = 0
			if !reflect.DeepEqual(batch, scalar) {
				t.Errorf("fast-forwarded result diverged from scalar:\n batch %+v\nscalar %+v", batch, scalar)
			}
		})
	}
}

// TestFleetWarmAllocsTraceIndependent pins the O(1)-allocation property
// of the batch replay path: with the stream and derived tables warm, a
// measurement's allocation count must not grow with trace length — the
// engine walks ops, never per-fetch heap state. The long trace repeats
// the short trace's loop 100x more, so equal counts prove independence.
// Under -race the measurements still run but the counts are not compared:
// sync.Pool there drops items at random, and the fmt.Sprintf behind each
// scheme's Spec draws from such a pool.
func TestFleetWarmAllocsTraceIndependent(t *testing.T) {
	build := func(iters int) *replay.Capture {
		const n = 256
		words := make([]uint32, n)
		r := rand.New(rand.NewSource(7))
		for i := range words {
			words[i] = r.Uint32()
		}
		b := replay.NewBuilder()
		prof := make([]uint64, n)
		add := func(i int) { b.Add(i); prof[i]++ }
		add(0)
		for it := 0; it < iters; it++ {
			for j := 1; j <= 16; j++ {
				add(j)
			}
			add(0)
		}
		tr := b.Trace()
		return &replay.Capture{Base: 0x8000, Words: words, Trace: tr, Profile: prof,
			Instructions: tr.N, BaselineTotal: 1}
	}
	short, long := build(40), build(4000)

	prev := SetBatchReplay(true)
	defer SetBatchReplay(prev)
	for _, s := range All() {
		if s.Name() == "paper" {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			allocsOn := func(cap *replay.Capture) float64 {
				st := NewStream(cap)
				w := &Workload{Cap: cap, Stream: st}
				if _, err := s.Measure(context.Background(), w, Params{}); err != nil {
					t.Fatal(err) // warm the derived tables
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := s.Measure(context.Background(), w, Params{}); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocsOn(short), allocsOn(long)
			if raceEnabled {
				t.Logf("race build: %.0f (short) vs %.0f (100x trace) allocs not compared", a, b)
				return
			}
			if a != b {
				t.Errorf("allocs grew with trace length: %.0f (short) vs %.0f (100x trace)", a, b)
			}
		})
	}
}

// BenchmarkFleetReplay times every fleet scheme through both replay
// paths on one warm synthetic capture — the per-cell view of the
// compare -bench grid numbers.
func BenchmarkFleetReplay(b *testing.B) {
	cap := synthCapture(3, 1024, 200000)
	st := NewStream(cap)
	for _, s := range All() {
		if s.Name() == "paper" {
			continue
		}
		for _, mode := range []struct {
			name  string
			batch bool
		}{{"batch", true}, {"scalar", false}} {
			b.Run(s.Name()+"/"+mode.name, func(b *testing.B) {
				prev := SetBatchReplay(mode.batch)
				defer SetBatchReplay(prev)
				w := &Workload{Cap: cap, Stream: st}
				if _, err := s.Measure(context.Background(), w, Params{}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Measure(context.Background(), w, Params{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
