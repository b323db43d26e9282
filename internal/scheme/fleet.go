package scheme

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"imtrans/internal/replay"
)

// batchReplay selects the fleet replay path. On (the default), the
// related-work coders measure through the word-parallel batch kernels
// over the shared transition stream, with repeat-aware fast-forward; off
// restores the per-word reference coders, kept as the differential
// oracle. Totals are bit-identical either way.
var batchReplay atomic.Bool

func init() { batchReplay.Store(true) }

// SetBatchReplay switches the fleet schemes between the batch kernels
// (on) and the per-word reference coders (off), returning the previous
// setting. Measurements are bit-identical in both modes; only wall time
// changes.
func SetBatchReplay(on bool) bool { return batchReplay.Swap(on) }

// BatchReplay reports whether the fleet batch kernels are active.
func BatchReplay() bool { return batchReplay.Load() }

// fleetState is a batch coder's comparable state snapshot: everything
// the cost of the next fetch can depend on beyond the current text index
// (which the engine tracks). Coders with index-pure costs return the
// zero value, which makes every net-zero-displacement loop periodic
// after one priming iteration pair.
type fleetState struct{ a, b uint64 }

// fleetAcc is the accumulator block every batch coder embeds: up to four
// linear counters (scaled arithmetically across fast-forwarded loop
// iterations) plus one monotone peak watermark (a maximum never shrinks,
// so repeated iterations and memoised visits merge it with max).
type fleetAcc struct {
	acc  [4]uint64
	peak uint64
}

func (f *fleetAcc) core() *fleetAcc { return f }

// batchCoder is the word-parallel contract of a fleet scheme backend.
// The engine hands it trace structure instead of single words: begin for
// the stream's first fetch, seq for a +1 run span (consecutive indices
// lo..hi whose predecessor fetch was lo-1), step for everything else
// (predecessor = the engine's previous index). state/setState expose the
// snapshot the repeat fast-forward compares and restores.
type batchCoder interface {
	begin(idx int32)
	step(idx int32)
	seq(lo, hi int32)
	state(idx int32) fleetState
	setState(idx int32, s fleetState)
	core() *fleetAcc
}

// fleetMemoKey identifies one repeat-group visit: the group op (ops are
// shared per capture, so the pointer is the identity), the text index on
// entry, and the coder state on entry. Equal keys replay identically —
// the coders are deterministic state machines over the index stream.
type fleetMemoKey struct {
	op  *replay.Op
	idx int32
	st  fleetState
}

// fleetOutcome is the recorded outcome of one whole repeat group entered
// at a given key: the accumulator deltas the group contributes, the peak
// watermark at exit, the exit index and coder state, and how many loop
// iterations a later visit skips by applying it. Immutable once stored.
type fleetOutcome struct {
	acc   [4]uint64
	peak  uint64
	idx   int32
	st    fleetState
	iters uint64
}

// FleetMemo shares repeat-group outcomes across fleet measurements — the
// batch-kernel mirror of replay.MemoStore. An outcome is a pure function
// of (capture, scheme, spec, entry key), so only cells that agree on all
// three may share a store; the compare grid groups equal-(scheme, spec)
// columns per benchmark exactly as it groups paper cells by memo
// signature. Safe for concurrent use; the first writer of a key wins.
type FleetMemo struct {
	mu   sync.RWMutex
	m    map[fleetMemoKey]*fleetOutcome
	hits atomic.Uint64
}

// NewFleetMemo returns an empty store.
func NewFleetMemo() *FleetMemo { return &FleetMemo{m: make(map[fleetMemoKey]*fleetOutcome)} }

func (s *FleetMemo) get(key fleetMemoKey) *fleetOutcome {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := s.m[key]
	s.mu.RUnlock()
	if out != nil {
		s.hits.Add(1)
	}
	return out
}

func (s *FleetMemo) put(key fleetMemoKey, out *fleetOutcome) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		s.m[key] = out
	}
	s.mu.Unlock()
}

// Outcomes reports how many distinct repeat-group outcomes the store holds.
func (s *FleetMemo) Outcomes() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Hits reports how many lookups the store has served.
func (s *FleetMemo) Hits() uint64 {
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// fleetDiag is the per-measurement replay telemetry: loop iterations
// charged analytically instead of stepped, and repeat-group outcomes
// served whole from a (local or shared) memo.
type fleetDiag struct {
	ffIters  uint64
	memoHits uint64
}

// fleetEngine drives a batch coder over the compressed trace: +1 runs
// become seq spans (where the kernels do prefix-sum lookups or tight
// array loops), other deltas step scalar, and repeat groups fast-forward
// once the coder state proves periodic — mirroring the paper replayer's
// runRepeat, with the outcome additionally memoised per entry state so
// revisits (nested loops, equal grid cells) skip even the priming
// iterations. Context polling follows the shared replay.Poller schedule.
type fleetEngine struct {
	pol    replay.Poller
	c      batchCoder
	fc     *fleetAcc
	idx    int32
	local  map[fleetMemoKey]*fleetOutcome
	shared *FleetMemo
	diag   fleetDiag
	err    error
}

// runFleet replays a capture's trace through a batch coder with the
// shared memo store (nil for a private run).
func runFleet(ctx context.Context, cap *replay.Capture, c batchCoder, shared *FleetMemo) (fleetDiag, error) {
	tr := cap.Trace
	if tr == nil || tr.N == 0 {
		return fleetDiag{}, fmt.Errorf("scheme: capture has an empty trace")
	}
	e := &fleetEngine{pol: replay.NewPoller(ctx), c: c, fc: c.core(), shared: shared, idx: tr.First}
	c.begin(tr.First)
	e.runOps(tr.Ops)
	return e.diag, e.err
}

func (e *fleetEngine) runOps(ops []replay.Op) {
	for i := range ops {
		if e.err != nil {
			return
		}
		op := &ops[i]
		if op.Repeat > 0 {
			e.runRepeat(op)
			continue
		}
		e.runRun(op.Delta, op.Count)
	}
}

func (e *fleetEngine) runRun(delta int32, count int64) {
	if delta == 1 {
		// Chunk long spans at the poll stride so cancellation stays
		// bounded; TickN keeps the poll schedule identical to a per-word
		// loop over the same fetches.
		for count > 0 {
			span := count
			if span > replay.CancelCheckStride {
				span = replay.CancelCheckStride
			}
			e.c.seq(e.idx+1, e.idx+int32(span))
			e.idx += int32(span)
			count -= span
			if err := e.pol.TickN(span); err != nil {
				e.err = err
				return
			}
		}
		return
	}
	for ; count > 0; count-- {
		e.idx += delta
		e.c.step(e.idx)
		if err := e.pol.Tick(); err != nil {
			e.err = err
			return
		}
	}
}

func (e *fleetEngine) memoGet(key fleetMemoKey) *fleetOutcome {
	if out := e.local[key]; out != nil {
		return out
	}
	if out := e.shared.get(key); out != nil {
		if e.local == nil {
			e.local = make(map[fleetMemoKey]*fleetOutcome)
		}
		e.local[key] = out
		return out
	}
	return nil
}

func (e *fleetEngine) memoPut(key fleetMemoKey, out *fleetOutcome) {
	if e.local == nil {
		e.local = make(map[fleetMemoKey]*fleetOutcome)
	}
	e.local[key] = out
	e.shared.put(key, out)
}

// runRepeat replays a repeat group. A memoised visit (same op, entry
// index and coder state — locally from an earlier pass through a nested
// loop, or from the shared store filled by an equal-(scheme, spec) cell)
// is charged in O(1): iters x body cost folded into the recorded deltas.
// Otherwise stepped body replays prime a periodicity check at periods 1
// and 2; once the (index, state) snapshot returns to its value one
// period earlier, the remaining repeats are added arithmetically, and
// either way the completed group's outcome is recorded for the next
// visit.
//
// Period 2 matters because it is the natural cadence of the XOR-shaped
// coders: a loop iteration that XORs a fixed nonzero value into the bus
// (lwc with an all-mapped body) or nets one invert-line flip (businvert)
// alternates between exactly two states. Every registered batch coder's
// state either is a pure function of the walked indices (gray, t0,
// codebook, dictionary after its first iteration), resets inside the
// body (a bus-invert tie pair, an lwc escape), or alternates as above —
// so periods 1 and 2 cover the whole fleet, and anything beyond falls
// back to stepped replay, which is always correct.
func (e *fleetEngine) runRepeat(op *replay.Op) {
	key := fleetMemoKey{op: op, idx: e.idx, st: e.c.state(e.idx)}
	if out := e.memoGet(key); out != nil {
		for l := range e.fc.acc {
			e.fc.acc[l] += out.acc[l]
		}
		if out.peak > e.fc.peak {
			e.fc.peak = out.peak
		}
		e.idx = out.idx
		e.c.setState(out.idx, out.st)
		e.diag.memoHits++
		e.diag.ffIters += out.iters
		return
	}
	acc0 := e.fc.acc
	done := int64(0)
	if op.Repeat >= 3 {
		e.runOps(op.Body)
		done++
		if e.err != nil {
			return
		}
		i1, s1 := e.idx, e.c.state(e.idx)
		a1 := e.fc.acc
		e.runOps(op.Body)
		done++
		if e.err != nil {
			return
		}
		if i1 == e.idx && s1 == e.c.state(e.idx) {
			// Period 1: every further iteration repeats the same index
			// walk from the same state, so it contributes the same
			// accumulator deltas — and nothing new to the peak, which the
			// two stepped iterations already saw.
			k := uint64(op.Repeat - done)
			for l := range e.fc.acc {
				e.fc.acc[l] += k * (e.fc.acc[l] - a1[l])
			}
			done = op.Repeat
			e.diag.ffIters += k
		} else if op.Repeat >= 5 {
			// Try period 2: run one more pair; if the snapshot after it
			// matches the snapshot before it, every further pair replays
			// those two iterations exactly. The primed pair already saw
			// both phases' peaks, and an odd leftover iteration is
			// finished stepped below.
			i2, s2 := e.idx, e.c.state(e.idx)
			a2 := e.fc.acc
			e.runOps(op.Body)
			done++
			if e.err != nil {
				return
			}
			e.runOps(op.Body)
			done++
			if e.err != nil {
				return
			}
			if i2 == e.idx && s2 == e.c.state(e.idx) {
				pairs := uint64(op.Repeat-done) / 2
				for l := range e.fc.acc {
					e.fc.acc[l] += pairs * (e.fc.acc[l] - a2[l])
				}
				done += int64(2 * pairs)
				e.diag.ffIters += 2 * pairs
			}
		}
	}
	for ; done < op.Repeat; done++ {
		if e.err != nil {
			return
		}
		e.runOps(op.Body)
	}
	if e.err != nil {
		return
	}
	out := &fleetOutcome{
		peak:  e.fc.peak,
		idx:   e.idx,
		st:    e.c.state(e.idx),
		iters: uint64(op.Repeat),
	}
	for l := range out.acc {
		out.acc[l] = e.fc.acc[l] - acc0[l]
	}
	e.memoPut(key, out)
}

// fleetStream returns the workload's shared transition stream, building
// a private one when the grid machinery did not attach one.
func fleetStream(w *Workload) *Stream {
	if w.Stream != nil && w.Stream.cap == w.Cap {
		return w.Stream
	}
	return NewStream(w.Cap)
}

// fleetFinish stamps the replay diagnostics onto a fleet result.
func fleetFinish(r *Result, d fleetDiag, derivedHit bool) {
	r.MemoHits = d.ffIters + d.memoHits
	if derivedHit {
		r.MemoHits++
	}
	r.finish()
}
