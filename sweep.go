package imtrans

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"imtrans/internal/stats"
)

// SweepOptions parameterises a supervised sweep. The zero value matches
// the legacy SweepMeasure behaviour: GOMAXPROCS parallelism, no
// checkpoint, no fault injection. Every capture and every cell runs once
// under a recover() guard; a cell is a pure function of its capture and
// configuration, so a failed one would fail again and is not retried.
type SweepOptions struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int

	// Checkpoint names the journal file for checkpoint-resume: every
	// completed cell is appended as one checksummed line, and a journal
	// left by an interrupted run restores its cells instead of
	// re-measuring them.
	// Empty disables journaling. A journal written for a different grid
	// (other benchmarks, configs, or scales) is refused, never mixed in.
	Checkpoint string

	// CheckpointSync makes every journal append power-fail durable: each
	// append is fsynced, and the first one also fsyncs the directory so
	// the journal's creation (a temp file renamed into place) is durable
	// too. Off by default so tests and interactive sweeps stay fast; the
	// job engine turns it on for daemon-owned sweeps.
	CheckpointSync bool

	// Progress, when non-nil, is called with monotonically increasing
	// (done, total) cell counts: once up front (reporting any cells
	// restored from the checkpoint journal), then after every cell this
	// run completes. It may be called concurrently from sweep workers.
	Progress func(done, total int)

	// FaultInject, when non-nil, runs at the top of every cell's
	// measurement — inside the supervision guard, so it may return an
	// error or panic to exercise the isolation machinery. It is the
	// fault-campaign hook; see SweepFaultPlan.
	FaultInject func(bench, config int) error
}

// SweepError is one isolated sweep failure: the cell (or whole benchmark,
// for capture-stage failures) that failed, the pipeline stage and the
// error. A worker panic surfaces here as a typed error
// (runsafe.PanicError) instead of crashing the process.
type SweepError struct {
	Benchmark   string
	Config      Config
	BenchIndex  int
	ConfigIndex int    // -1 when the whole benchmark failed to capture
	Stage       string // "capture", "measure" or "checkpoint"
	Err         error
}

// Error implements the error interface.
func (e *SweepError) Error() string {
	where := e.Benchmark
	if e.ConfigIndex >= 0 {
		where += " [" + e.Config.String() + "]"
	}
	return fmt.Sprintf("imtrans: sweep %s stage, %s: %v", e.Stage, where, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *SweepError) Unwrap() error { return e.Err }

// SweepResult is the outcome of a supervised sweep. Measurements is
// indexed [benchmark][config]; Done marks which cells hold a valid
// measurement (failed, skipped and cancelled cells keep the zero value).
// Errors lists every isolated failure in grid order. Counters carries the
// supervision telemetry (failures, panics, cancellations, checkpoint
// activity) for machine-readable reports; docs/PERFORMANCE.md lists every
// counter.
type SweepResult struct {
	Measurements [][]Measurement
	Done         [][]bool
	Errors       []SweepError

	// CellNs[bench][config] is the wall time of the cell's measurement in
	// nanoseconds; zero for cells restored from a checkpoint or never
	// completed.
	CellNs [][]int64

	Restored  int // cells restored from the checkpoint journal
	Completed int // cells measured by this run
	Cancelled int // cells abandoned by context cancellation

	Counters stats.Counters
}

// Err returns the first isolated failure in grid order, or nil when every
// cell completed.
func (r *SweepResult) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	return &r.Errors[0]
}

// sweepGrid derives the journal identity of a sweep: a hash over every
// benchmark's (kernel, scale) salt and every configuration's full
// parameter set, plus the grid dimensions. Two sweeps share a checkpoint
// iff this hash matches, so a stale journal from a different experiment
// is detected instead of silently mixed in.
func sweepGrid(benchmarks []Benchmark, cfgs []Config) (grid string, benchNames, cfgNames []string) {
	h := sha256.New()
	fmt.Fprintf(h, "imtrans-sweep-grid 1 %d %d\n", len(benchmarks), len(cfgs))
	benchNames = make([]string, len(benchmarks))
	for i, b := range benchmarks {
		benchNames[i] = b.Name
		fmt.Fprintf(h, "bench %s\n", b.captureSalt())
	}
	cfgNames = make([]string, len(cfgs))
	for i, c := range cfgs {
		cfgNames[i] = c.String()
		fmt.Fprintf(h, "config %#v\n", c)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), benchNames, cfgNames
}

// SweepMeasureCtx evaluates every (benchmark, configuration) pair of a
// grid under supervision: each capture and each cell runs once under a
// recover() guard, so one poisoned cell yields a typed SweepError entry
// while the rest of the grid completes. Cancelling the context stops the
// sweep within one task granule — workers poll it inside the profiling
// run, before each bit line the encoder encodes and in the replay fetch
// loop — and returns the partial SweepResult alongside an error wrapping
// ctx.Err(). With opts.Checkpoint set, completed cells are journalled
// atomically and an interrupted run resumes exactly where it stopped,
// bit-identical to an uninterrupted run.
//
// The returned error is non-nil only for setup failures (a configuration
// outside the paper ConfigSpace, refused before any capture, or an
// unreadable or mismatched checkpoint) and cancellation; isolated cell
// failures are reported in SweepResult.Errors, in deterministic grid
// order.
func SweepMeasureCtx(ctx context.Context, benchmarks []Benchmark, cfgs []Config, opts SweepOptions) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfgs) == 0 {
		cfgs = []Config{{}}
	}
	cols, err := paperColumns(cfgs)
	if err != nil {
		return nil, err
	}
	run, err := runGrid(ctx, &gridSpec[Measurement]{
		rows:     len(benchmarks),
		capture:  benchCapture(benchmarks),
		cols:     cols,
		identity: func() (string, []string, []string) { return sweepGrid(benchmarks, cfgs) },
	}, opts)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Measurements: run.vals,
		Done:         run.done,
		CellNs:       run.cellNs,
		Restored:     run.restored,
		Completed:    run.completed,
		Cancelled:    run.cancelled,
	}
	for _, e := range run.errs {
		se := SweepError{
			Benchmark:   benchmarks[e.row].Name,
			BenchIndex:  e.row,
			ConfigIndex: e.col,
			Stage:       e.stage,
			Err:         e.err,
		}
		if e.col >= 0 {
			se.Config = cfgs[e.col]
		}
		res.Errors = append(res.Errors, se)
	}
	var memo cellMemo
	for _, t := range run.colTally {
		memo.add(t.memo)
	}
	c := &res.Counters
	run.addSupervision(c, "sweep")
	c.Add("replay_memo_blocks", uint64(memo.blocks))
	c.Add("replay_memo_hits", memo.hits)
	c.Add("replay_memo_shared", uint64(memo.shared))
	c.Add("encode_candidates_built", uint64(run.candidatesBuilt))
	run.addCheckpoint(c)
	return res, run.interrupted("sweep")
}

// SweepFaultPlan is a deterministic fault campaign against sweep workers:
// the listed cells panic or error, proving that supervision isolates the
// failure and the rest of the grid completes. Cells are (benchmark index,
// config index) pairs.
type SweepFaultPlan struct {
	PanicCells [][2]int // cells whose injected fault is a panic
	ErrorCells [][2]int // cells whose injected fault is an error
}

// Injector returns the SweepOptions.FaultInject hook implementing the
// plan. The hook is safe for concurrent workers.
func (p SweepFaultPlan) Injector() func(bench, config int) error {
	panicCell := make(map[[2]int]bool, len(p.PanicCells))
	for _, c := range p.PanicCells {
		panicCell[c] = true
	}
	errCell := make(map[[2]int]bool, len(p.ErrorCells))
	for _, c := range p.ErrorCells {
		errCell[c] = true
	}
	return func(bench, config int) error {
		cell := [2]int{bench, config}
		if panicCell[cell] {
			panic(fmt.Sprintf("injected sweep fault: cell (%d,%d)", bench, config))
		}
		if errCell[cell] {
			return fmt.Errorf("injected sweep fault: cell (%d,%d)", bench, config)
		}
		return nil
	}
}

// ParseSweepFaultPlan parses a command-line fault campaign spec:
// semicolon-separated directives "panic@B,C" and "error@B,C" naming grid
// cells by benchmark and config index.
//
//	panic@0,1;error@2,0
func ParseSweepFaultPlan(spec string) (SweepFaultPlan, error) {
	var plan SweepFaultPlan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, cell, ok := strings.Cut(part, "@")
		if !ok || (kind != "panic" && kind != "error") {
			return SweepFaultPlan{}, fmt.Errorf("imtrans: bad fault directive %q (want panic@B,C or error@B,C)", part)
		}
		bs, cs, ok := strings.Cut(cell, ",")
		if !ok {
			return SweepFaultPlan{}, fmt.Errorf("imtrans: bad fault cell %q (want B,C)", cell)
		}
		bi, err1 := strconv.Atoi(strings.TrimSpace(bs))
		ci, err2 := strconv.Atoi(strings.TrimSpace(cs))
		if err1 != nil || err2 != nil || bi < 0 || ci < 0 {
			return SweepFaultPlan{}, fmt.Errorf("imtrans: bad fault cell %q", cell)
		}
		if kind == "panic" {
			plan.PanicCells = append(plan.PanicCells, [2]int{bi, ci})
		} else {
			plan.ErrorCells = append(plan.ErrorCells, [2]int{bi, ci})
		}
	}
	return plan, nil
}
