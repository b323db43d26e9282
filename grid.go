package imtrans

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imtrans/internal/checkpoint"
	"imtrans/internal/core"
	"imtrans/internal/replay"
	"imtrans/internal/runsafe"
	"imtrans/internal/scheme"
	"imtrans/internal/stats"
	"imtrans/internal/wsq"
)

// gridBound is the process-wide bound on grid workers; see SetParallelism.
var gridBound atomic.Int32

func init() { gridBound.Store(int32(runtime.GOMAXPROCS(0))) }

// SetParallelism bounds the workers of every measurement grid — its
// captures and its cells alike — and returns the previous bound. Values
// below 1 (zero, negative) are clamped to 1, so a grid is always fully
// serial at the bottom, never stalled; the default is GOMAXPROCS. Results
// never depend on the setting — only wall-clock time does.
func SetParallelism(n int) int { return int(gridBound.Swap(int32(max(n, 1)))) }

// Parallelism reports the current grid worker bound.
func Parallelism() int { return int(gridBound.Load()) }

// gridSpec describes one supervised grid: each row is a captured program,
// each column a measurement of a row's capture. SweepMeasureCtx,
// CompareMeasureCtx and the ReplayMeasure family are adapters that build
// one and shape the gridRun it yields into their own results.
type gridSpec[T any] struct {
	rows    int
	capture func(ctx context.Context, row int) (*replay.Capture, error)
	cols    []gridColumn[T]

	// identity names the grid for its checkpoint journal: a hash over
	// every row and column, plus their display names. Consulted only when
	// SweepOptions.Checkpoint is set.
	identity func() (grid string, rowNames, colNames []string)
}

// gridColumn is one column of a grid: the measurement its cells run and
// the key under which cells of one row share replay state.
type gridColumn[T any] struct {
	measure func(ctx context.Context, w *scheme.Workload) (T, cellMemo, error)
	share   gridShare
}

// gridShare groups the columns whose cells may share memos within a row.
// Paper columns share block-outcome memos keyed by memoSig; fleet columns
// share repeat outcomes keyed by spec label and read the row's transition
// stream.
type gridShare struct {
	key   string
	fleet bool
}

// cellMemo is the memo diagnostics of one measured cell.
type cellMemo struct {
	blocks, shared int    // paper block memos built / adopted from a shared store
	hits           uint64 // memo-served blocks, loop iterations and repeat groups
}

func (m *cellMemo) add(o cellMemo) {
	m.blocks += o.blocks
	m.shared += o.shared
	m.hits += o.hits
}

// gridError is one isolated grid failure: the cell (col -1 when the row's
// capture failed), the pipeline stage and the error.
type gridError struct {
	row, col int
	stage    string
	err      error
}

// gridRun is a finished grid in grid order: every cell's value, completion
// and wall time, the isolated failures, and the tallies behind the
// supervision counters.
type gridRun[T any] struct {
	vals   [][]T
	done   [][]bool
	cellNs [][]int64
	errs   []gridError

	cells, restored, completed, cancelled int
	failed, skipped, panics               int
	recorded, ckErrs                      int
	gridWorkers                           int

	// candidatesBuilt counts the candidate lists the paper cells built:
	// one per row and shared signature group that built its list, one
	// per completed cell of a singleton group.
	candidatesBuilt int

	colTally []columnTally

	ctxErr error // the context's error once the run ended, if any
}

// columnTally sums one column's cells measured by this run; restored
// cells are not counted.
type columnTally struct {
	completed int
	memo      cellMemo

	// streamShared counts the fleet cells that read a row's transition
	// stream after another cell of the row: every fleet cell this run
	// completed except the lowest-index one of its row. Derived from the
	// grid, not from which worker got there first, so the split is the
	// same at any parallelism.
	streamShared int
}

// runGrid evaluates every cell of g under supervision: each capture and
// each cell runs once under a recover() guard, so one poisoned cell
// records a gridError while the rest of the grid completes. Captures and
// cells are deterministic, so nothing is retried. With opts.Checkpoint
// set, completed cells are journalled and a journal left by an
// interrupted run restores its cells instead of re-measuring them. The
// error is non-nil only for an unreadable or mismatched checkpoint;
// cancellation is left in ctxErr.
//
// One worker count bounds both phases: the requested parallelism (or
// GOMAXPROCS), capped by the SetParallelism bound and by the cell count.
func runGrid[T any](ctx context.Context, g *gridSpec[T], opts SweepOptions) (*gridRun[T], error) {
	nr, nc := g.rows, len(g.cols)
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	workers := max(1, min(par, Parallelism(), nr*nc))

	type cellState struct {
		val      T
		memo     cellMemo
		wallNs   int64
		done     bool
		restored bool
		err      error
		ckErr    error
	}
	cells := make([]cellState, nr*nc)

	var journal *checkpoint.Journal
	restored := 0
	if opts.Checkpoint != "" {
		grid, rowNames, colNames := g.identity()
		j, prev, err := checkpoint.Open(opts.Checkpoint, grid, rowNames, colNames)
		if err != nil {
			return nil, err
		}
		j.SetDurable(opts.CheckpointSync)
		journal = j
		for _, c := range prev {
			s := &cells[c.Bench*nc+c.Config]
			if err := json.Unmarshal(c.Payload, &s.val); err != nil {
				return nil, fmt.Errorf("imtrans: checkpoint cell (%s, %s): %w",
					rowNames[c.Bench], colNames[c.Config], err)
			}
			s.done, s.restored = true, true
			restored++
		}
	}

	var progressDone atomic.Int64
	progressDone.Store(int64(restored))
	if opts.Progress != nil {
		opts.Progress(restored, nr*nc)
	}

	// Capture phase: one supervised profiling run per row that still has
	// pending cells. A row restored entirely from the journal is not
	// re-simulated.
	type rowState struct {
		pending bool
		cap     *replay.Capture
		err     error
	}
	rows := make([]rowState, nr)
	for t := range cells {
		if !cells[t].done {
			rows[t/nc].pending = true
		}
	}
	runPoolCtx(ctx, workers, nr, func(ri int) {
		r := &rows[ri]
		if !r.pending {
			return
		}
		r.err = runsafe.Run(func() error {
			cap, err := g.capture(ctx, ri)
			if err != nil {
				return err
			}
			r.cap = cap
			return nil
		})
	})

	// Measure phase: one supervised task per pending cell, distributed by
	// a work-stealing queue so a few expensive cells cannot strand the
	// other workers. Failures stay in the cell — the pool keeps draining
	// the rest of the grid.

	// One shared store per row and sharing group of two or more columns,
	// so cells that encode blocks identically build their candidate list
	// once and pay each block's first verified walk once. Singleton
	// groups get none and skip the store locking entirely; memos and
	// candidate lists never cross programs or grid runs.
	groups := make(map[gridShare][]int, nc)
	fleet := false
	for ci, col := range g.cols {
		groups[col.share] = append(groups[col.share], ci)
		fleet = fleet || col.share.fleet
	}
	memos := make([]*replay.MemoStore, nr*nc)
	fleetMemos := make([]*scheme.FleetMemo, nr*nc)
	for share, idxs := range groups {
		if len(idxs) < 2 {
			continue
		}
		for ri := 0; ri < nr; ri++ {
			var memo *replay.MemoStore
			var fleetMemo *scheme.FleetMemo
			if share.fleet {
				fleetMemo = scheme.NewFleetMemo()
			} else {
				memo = replay.NewMemoStore()
			}
			for _, ci := range idxs {
				memos[ri*nc+ci], fleetMemos[ri*nc+ci] = memo, fleetMemo
			}
		}
	}
	// Fleet cells of one row read that row's transition stream, built
	// once here.
	streams := make([]*scheme.Stream, nr)
	if fleet {
		for ri := range rows {
			if rows[ri].cap != nil {
				streams[ri] = scheme.NewStream(rows[ri].cap)
			}
		}
	}

	// One encoder arena per worker, reused across every cell the worker
	// measures.
	arenas := make([]core.Arena, workers)
	runStealCtx(ctx, workers, nr*nc, func(worker, t int) {
		ri, ci := t/nc, t%nc
		s := &cells[t]
		if s.done || !rows[ri].pending || rows[ri].err != nil {
			return
		}
		col := &g.cols[ci]
		w := &scheme.Workload{
			Cap:         rows[ri].cap,
			Shared:      memos[t],
			EncArena:    &arenas[worker],
			FleetShared: fleetMemos[t],
		}
		if col.share.fleet {
			w.Stream = streams[ri]
		}
		s.err = runsafe.Run(func() error {
			if opts.FaultInject != nil {
				if err := opts.FaultInject(ri, ci); err != nil {
					return err
				}
			}
			start := time.Now()
			v, memo, err := col.measure(ctx, w)
			if err != nil {
				return err
			}
			s.val, s.memo = v, memo
			s.wallNs = time.Since(start).Nanoseconds()
			return nil
		})
		if s.err != nil {
			return
		}
		s.done = true
		if journal != nil {
			payload, err := json.Marshal(s.val)
			if err == nil {
				err = journal.Record(ri, ci, payload)
			}
			s.ckErr = err
		}
		if opts.Progress != nil {
			opts.Progress(int(progressDone.Add(1)), nr*nc)
		}
	})

	// Assemble in grid order: deterministic error ordering and counters at
	// any parallelism.
	run := &gridRun[T]{
		vals:        make([][]T, nr),
		done:        make([][]bool, nr),
		cellNs:      make([][]int64, nr),
		cells:       nr * nc,
		gridWorkers: workers,
		colTally:    make([]columnTally, nc),
		ctxErr:      ctx.Err(),
	}
	fail := func(row, col int, stage string, err error) {
		run.errs = append(run.errs, gridError{row: row, col: col, stage: stage, err: err})
		var pe *runsafe.PanicError
		if errors.As(err, &pe) {
			run.panics++
		}
	}
	for ri := 0; ri < nr; ri++ {
		run.vals[ri] = make([]T, nc)
		run.done[ri] = make([]bool, nc)
		run.cellNs[ri] = make([]int64, nc)
		r := &rows[ri]
		capFailed := r.err != nil && !isCtxErr(r.err)
		if capFailed {
			fail(ri, -1, "capture", r.err)
		}
		attached := false // a fleet cell of this row has read its stream
		for ci := 0; ci < nc; ci++ {
			s := &cells[ri*nc+ci]
			switch {
			case s.done:
				run.vals[ri][ci] = s.val
				run.done[ri][ci] = true
				run.cellNs[ri][ci] = s.wallNs
				if s.restored {
					run.restored++
				} else {
					run.completed++
					tally := &run.colTally[ci]
					tally.completed++
					tally.memo.add(s.memo)
					if g.cols[ci].share.fleet {
						if attached {
							tally.streamShared++
						}
						attached = true
					}
					if journal != nil && s.ckErr == nil {
						run.recorded++
					}
				}
				if s.ckErr != nil {
					run.ckErrs++
					run.errs = append(run.errs, gridError{row: ri, col: ci, stage: "checkpoint", err: s.ckErr})
				}
			case capFailed:
				run.skipped++
			case s.err != nil && !isCtxErr(s.err):
				run.failed++
				fail(ri, ci, "measure", s.err)
			default:
				// No result, no recorded failure: the cell was abandoned
				// mid-flight or never started because the context ended.
				run.cancelled++
			}
		}
	}
	for share, idxs := range groups {
		if share.fleet {
			continue
		}
		for ri := 0; ri < nr; ri++ {
			if len(idxs) > 1 {
				if memos[ri*nc+idxs[0]].Candidates().Built() {
					run.candidatesBuilt++
				}
			} else if s := &cells[ri*nc+idxs[0]]; s.done && !s.restored {
				run.candidatesBuilt++
			}
		}
	}
	return run, nil
}

// addSupervision writes the supervision counters of the named family
// ("sweep", "compare").
func (r *gridRun[T]) addSupervision(c *stats.Counters, family string) {
	c.Add(family+"_cells", uint64(r.cells))
	c.Add(family+"_completed", uint64(r.completed))
	c.Add(family+"_failed", uint64(r.failed))
	c.Add(family+"_skipped", uint64(r.skipped))
	c.Add(family+"_cancelled", uint64(r.cancelled))
	c.Add(family+"_panics", uint64(r.panics))
	c.Add(family+"_grid_workers", uint64(r.gridWorkers))
}

// addCheckpoint writes the checkpoint-journal counters.
func (r *gridRun[T]) addCheckpoint(c *stats.Counters) {
	c.Add("checkpoint_restored", uint64(r.restored))
	c.Add("checkpoint_recorded", uint64(r.recorded))
	c.Add("checkpoint_errors", uint64(r.ckErrs))
}

// interrupted returns the error a facade of the named family reports when
// the context ended before the grid completed, or nil.
func (r *gridRun[T]) interrupted(family string) error {
	if r.ctxErr == nil {
		return nil
	}
	return fmt.Errorf("imtrans: %s cancelled with %d/%d cells done: %w",
		family, r.restored+r.completed, r.cells, r.ctxErr)
}

// benchCapture is the row capture of a benchmark grid. The grid's
// errors name the benchmark, so a row resolves without benchRun.
func benchCapture(benchmarks []Benchmark) func(ctx context.Context, row int) (*replay.Capture, error) {
	return func(ctx context.Context, row int) (*replay.Capture, error) {
		t, err := benchmarks[row].resolve()
		if err != nil {
			return nil, err
		}
		return captureProgram(ctx, t)
	}
}

// gridErrorText renders an isolated grid failure of a family ("sweep",
// "compare"): "imtrans: sweep measure stage, fft [column]: <err>".
func gridErrorText(family, stage, bench, col string, err error) string {
	where := family + " " + stage + " stage"
	if bench != "" {
		where += ", " + bench
	}
	if col != "" {
		where += " [" + col + "]"
	}
	return withContext(where, err)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runPoolCtx runs f(0..n-1) over at most `workers` goroutines, handing
// the next index to whichever worker is free, so one costly index cannot
// strand the indices queued behind it. Each index is processed exactly
// once; callers that need determinism write into index-addressed slots.
// Once ctx is done, workers stop picking up new indices; skipped indices
// keep their zero-value slots, so callers must consult ctx.Err() before
// trusting the output.
func runPoolCtx(ctx context.Context, workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runStealCtx runs f(worker, 0..n-1) over a work-stealing worker pool:
// each worker owns a contiguous interval of the index space (neighbouring
// grid cells share captures, chain tables and memo stores, so locality is
// worth keeping) and steals the back half of the fullest remaining
// interval once its own drains — skewed per-cell costs cannot strand a
// core the way strided assignment can. Each index runs exactly once;
// callers needing determinism write into index-addressed slots, the same
// contract as runPoolCtx. The worker id is passed through so callers can
// bind per-worker state such as scratch arenas.
func runStealCtx(ctx context.Context, workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(0, i)
		}
		return
	}
	q := wsq.New(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := q.Next(w)
				if !ok {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}
