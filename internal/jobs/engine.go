package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imtrans"
	"imtrans/internal/checkpoint"
	"imtrans/internal/runsafe"
	"imtrans/internal/stats"
)

// Config parameterises the engine. The zero value (plus a Dir) runs one
// job at a time with a one-hour default deadline and fast (non-fsynced)
// journals.
type Config struct {
	// Dir is the job store root; required.
	Dir string

	// MaxConcurrent bounds simultaneously executing jobs; <= 0 means 1.
	// Each job's sweep parallelises internally, so one job already
	// saturates the cores — raise this only to overlap small grids.
	MaxConcurrent int

	// Parallelism bounds each job's sweep worker fan-out; <= 0 means
	// GOMAXPROCS (the sweep layer's default).
	Parallelism int

	// DefaultDeadline bounds a job attempt's wall clock when the spec
	// doesn't; <= 0 means 1 h. A resumed attempt gets a fresh deadline —
	// it owes only the remaining cells.
	DefaultDeadline time.Duration

	// Fsync makes every record write and checkpoint append power-fail
	// durable: records, results and a journal's creation fsync the temp
	// file and the directory around the rename, and each journal append
	// fsyncs the journal.
	Fsync bool

	// Counters receives the engine's telemetry (jobs_submitted_total,
	// jobs_resumed_total, job_cells_restored_total, ...); nil allocates a
	// private set.
	Counters *stats.Counters
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Hour
	}
	if c.Counters == nil {
		c.Counters = &stats.Counters{}
	}
	return c
}

// job is one tracked job: the durable record plus in-memory control state.
type job struct {
	rec        Record
	spec       *Spec
	cancel     context.CancelFunc // non-nil while running
	userCancel bool               // Cancel() was called; distinguishes from engine stop
	recovery   bool               // counted in the boot-recovery gauge until terminal/complete
}

// Engine owns the job store and the per-job supervisors. Open it, Resume
// it once, Submit against it, Stop it on drain. All methods are safe for
// concurrent use.
type Engine struct {
	cfg Config

	ctx    context.Context // cancelled by Stop/Kill; parent of every job context
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job

	sem        chan struct{} // job slots
	wg         sync.WaitGroup
	stopping   atomic.Bool // graceful drain: leave running jobs resumable
	killed     atomic.Bool // SIGKILL simulation (tests): abandon without any writes
	recovering atomic.Int64

	// testHookProgress, when non-nil, observes every progress callback of
	// every running job — tests use it to kill the engine mid-sweep at a
	// deterministic cell count.
	testHookProgress func(id string, done, total int)

	// runFn executes one job attempt; tests substitute a scriptable stub.
	runFn func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, RunStats, error)
}

// Open creates (or reopens) the store at cfg.Dir and scans every job into
// memory, re-verifying specs and records: a file that fails validation
// marks its job corrupt rather than erroring the boot — the daemon comes
// up and reports the damage. No job starts running until Resume.
func Open(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: store directory is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
	}
	e.runFn = e.execute
	if err := e.scan(); err != nil {
		cancel()
		return nil, err
	}
	return e, nil
}

// scan loads every stored job, marking unverifiable ones corrupt.
func (e *Engine) scan() error {
	entries, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		j := e.loadJob(id)
		e.jobs[id] = j
		if j.rec.State == StateCorrupt {
			e.cfg.Counters.Add("jobs_corrupt_total", 1)
		}
	}
	return nil
}

// loadJob reads one job directory, downgrading any validation failure to
// a corrupt in-memory record (the damaged files are left on disk for
// inspection; a resubmission of the spec wipes and recreates the job).
func (e *Engine) loadJob(id string) *job {
	corrupt := func(err error) *job {
		return &job{rec: Record{
			ID:    id,
			State: StateCorrupt,
			Error: &ErrorInfo{Kind: "corrupt", Message: err.Error()},
		}}
	}
	spec, err := readSpec(filepath.Join(e.cfg.Dir, id, specFile), id)
	if err != nil {
		return corrupt(fmt.Errorf("spec: %w", err))
	}
	rec, err := readRecord(filepath.Join(e.cfg.Dir, id, recordFile))
	if err != nil {
		return corrupt(fmt.Errorf("record: %w", err))
	}
	if rec.ID != id {
		return corrupt(fmt.Errorf("record id %q does not match directory %q", rec.ID, id))
	}
	return &job{rec: *rec, spec: spec}
}

// Resume launches recovery: every job found queued or running at boot is
// re-queued and re-executed, resuming from its checkpoint journal. The
// engine reports Recovering() == true until each of those jobs reaches a
// settled state, so /readyz can advertise the degradation window.
func (e *Engine) Resume() {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.jobs))
	for id := range e.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic resume order
	for _, id := range ids {
		j := e.jobs[id]
		switch j.rec.State {
		case StateQueued:
			// Interrupted before it ever ran; just start it.
		case StateRunning:
			// Interrupted mid-run: re-verify the journal, re-queue,
			// resume. A journal that fails verification is removed — the
			// job re-runs from zero cells, still bit-identical.
			jp := e.journalPath(id)
			if _, err := checkpoint.Load(jp); err != nil && !os.IsNotExist(err) {
				os.Remove(jp)
				e.cfg.Counters.Add("job_journals_reset_total", 1)
			}
			j.rec.State = StateQueued
			j.rec.Resumes++
			e.cfg.Counters.Add("jobs_resumed_total", 1)
			e.persistLocked(j, true)
		default:
			continue
		}
		j.recovery = true
		e.recovering.Add(1)
		e.startLocked(j)
	}
}

// Recovering reports whether boot recovery still owes work: true until
// every job interrupted by the previous run has settled.
func (e *Engine) Recovering() bool { return e.recovering.Load() > 0 }

// Counters exposes the engine's telemetry set.
func (e *Engine) Counters() *stats.Counters { return e.cfg.Counters }

// Submit registers a spec, content-addressed: a spec already queued,
// running, or done deduplicates onto the existing job; a failed or
// cancelled job is re-queued (its journal retained, so the re-run resumes
// from the last checkpointed cell); a corrupt job directory is wiped and
// recreated. Returns the job's record snapshot and whether a new
// execution was scheduled.
func (e *Engine) Submit(sp *Spec) (Record, bool, error) {
	// Resolve names up front so an unknown kernel or scheme is a client
	// error at submit time, not a failed job later.
	if err := sp.Check(); err != nil {
		return Record{}, false, err
	}
	id := sp.ID()
	rows, cols := sp.Grid()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopping.Load() {
		return Record{}, false, fmt.Errorf("jobs: engine is stopping")
	}
	if j, ok := e.jobs[id]; ok {
		switch j.rec.State {
		case StateFailed, StateCancelled:
			j.rec.State = StateQueued
			j.rec.Error = nil
			j.userCancel = false
			e.cfg.Counters.Add("jobs_resubmitted_total", 1)
			e.persistLocked(j, true)
			e.startLocked(j)
			return j.rec, true, nil
		case StateCorrupt:
			if err := os.RemoveAll(filepath.Join(e.cfg.Dir, id)); err != nil {
				return Record{}, false, fmt.Errorf("jobs: wiping corrupt job %s: %w", id, err)
			}
			e.cfg.Counters.Add("jobs_corrupt_wiped_total", 1)
			delete(e.jobs, id)
			// Fall through to fresh creation below.
		default:
			e.cfg.Counters.Add("jobs_deduped_total", 1)
			return j.rec, false, nil
		}
	}

	dir := filepath.Join(e.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Record{}, false, fmt.Errorf("jobs: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, specFile), sp.Canonical(), e.cfg.Fsync); err != nil {
		return Record{}, false, err
	}
	now := timestamp()
	j := &job{
		rec: Record{
			ID:         id,
			State:      StateQueued,
			SpecSHA256: id,
			Created:    now,
			Updated:    now,
			CellsTotal: rows * cols,
		},
		spec: sp,
	}
	e.jobs[id] = j
	e.cfg.Counters.Add("jobs_submitted_total", 1)
	e.persistLocked(j, true)
	e.startLocked(j)
	return j.rec, true, nil
}

// Get returns a job's record snapshot.
func (e *Engine) Get(id string) (Record, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Record{}, false
	}
	return j.rec, true
}

// List returns every job's record, newest first (ties broken by ID).
func (e *Engine) List() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Record, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j.rec)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Created != out[k].Created {
			return out[i].Created > out[k].Created
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// StateCounts tallies jobs per state, for the metrics gauges.
func (e *Engine) StateCounts() map[State]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[State]int)
	for _, j := range e.jobs {
		out[j.rec.State]++
	}
	return out
}

// ErrNotFinished is returned by ResultBytes for a job with no result yet.
var ErrNotFinished = errors.New("jobs: job has not finished")

// ErrResultDamaged is returned (wrapped) by ResultBytes for a done job
// whose sealed result cannot be read or verified; the job is corrupt
// from then on.
var ErrResultDamaged = errors.New("jobs: result file is damaged")

// ResultBytes returns a done job's stored result payload — the exact
// bytes, CRC-verified, that were sealed when the job completed, so every
// fetch (and every replica of a resumed run) serves an identical body.
// A job in any other state returns its record and a typed error:
// ErrNotFinished while queued/running, the job's ErrorInfo once failed.
// A done job whose result fails to read or verify is persisted as
// corrupt, so a resubmission of its spec wipes it and runs it again.
func (e *Engine) ResultBytes(id string) ([]byte, Record, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, Record{}, os.ErrNotExist
	}
	rec := j.rec
	e.mu.Unlock()
	if rec.State != StateDone {
		if rec.State == StateFailed || rec.State == StateCancelled || rec.State == StateCorrupt {
			return nil, rec, fmt.Errorf("jobs: job %s is %s", id, rec.State)
		}
		return nil, rec, ErrNotFinished
	}
	payload, err := readResultPayload(filepath.Join(e.cfg.Dir, id, resultFile))
	if err == nil {
		return payload, rec, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobs[id] == j && j.rec.State == StateDone {
		j.rec.State = StateCorrupt
		j.rec.Error = &ErrorInfo{Kind: "corrupt", Message: "result: " + err.Error()}
		e.cfg.Counters.Add("jobs_corrupt_total", 1)
		e.persistLocked(j, true)
	}
	return nil, j.rec, fmt.Errorf("%w: %v", ErrResultDamaged, err)
}

// Cancel requests cooperative cancellation. Queued jobs settle to
// cancelled immediately; running jobs get their context cancelled and
// settle once the sweep's workers drain (within one cell granule).
// Cancelling a terminal job — including a double cancel — is a no-op
// that returns the current record.
func (e *Engine) Cancel(id string) (Record, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Record{}, false
	}
	switch j.rec.State {
	case StateQueued:
		j.userCancel = true
		j.rec.State = StateCancelled
		j.rec.Error = &ErrorInfo{Kind: "cancelled", Message: "cancelled while queued"}
		e.cfg.Counters.Add("jobs_cancelled_total", 1)
		e.persistLocked(j, true)
		e.settleRecoveryLocked(j)
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.rec, true
}

// Stop drains the engine: no new submissions, every running job's context
// is cancelled, and the supervisors are awaited (bounded by ctx). Running
// jobs are NOT marked terminal — their on-disk state stays running, the
// exact marker boot recovery resumes from, so a graceful drain and a
// SIGKILL owe the same nothing.
func (e *Engine) Stop(ctx context.Context) error {
	e.stopping.Store(true)
	e.cancel()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// Kill abandons everything instantly with no further writes — SIGKILL
// semantics for tests: whatever the store holds at this moment is what a
// crashed process would have left behind.
func (e *Engine) Kill() {
	e.killed.Store(true)
	e.stopping.Store(true)
	e.cancel()
	e.wg.Wait()
}

// journalPath is where a job's sweep checkpoint lives.
func (e *Engine) journalPath(id string) string {
	return filepath.Join(e.cfg.Dir, id, journalFile)
}

// startLocked launches a job's supervisor goroutine. Caller holds e.mu.
func (e *Engine) startLocked(j *job) {
	e.wg.Add(1)
	go e.run(j)
}

// run is the per-job supervisor: it waits for a job slot, executes the
// sweep attempt under the per-job deadline, and settles the terminal
// state. An engine stop (drain or kill) leaves the job running on disk
// for the next boot's recovery.
func (e *Engine) run(j *job) {
	defer e.wg.Done()
	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-e.ctx.Done():
		return
	}

	e.mu.Lock()
	if j.rec.State != StateQueued { // cancelled while waiting for a slot
		e.mu.Unlock()
		return
	}
	j.rec.State = StateRunning
	j.rec.Attempts++
	deadline := e.cfg.DefaultDeadline
	if j.spec.DeadlineSeconds > 0 {
		deadline = time.Duration(j.spec.DeadlineSeconds) * time.Second
	}
	jctx, cancel := context.WithTimeout(e.ctx, deadline)
	j.cancel = cancel
	e.persistLocked(j, true)
	id := j.rec.ID
	sp := j.spec
	e.mu.Unlock()
	defer cancel()

	var lastPersist atomic.Int64
	progress := func(done, total int) {
		e.mu.Lock()
		if done > j.rec.CellsDone {
			j.rec.CellsDone = done
		}
		j.rec.CellsTotal = total
		// Throttle progress persistence: the journal is the durable
		// source of truth per cell; the record just needs to look fresh.
		now := time.Now().UnixMilli()
		if now-lastPersist.Load() >= 200 {
			lastPersist.Store(now)
			e.persistLocked(j, false)
		}
		e.mu.Unlock()
		if e.testHookProgress != nil {
			e.testHookProgress(id, done, total)
		}
	}

	// A panic outside the grid's per-capture and per-cell guards (stream
	// building, result assembly) fails this job, not the daemon.
	var res *Result
	var rs RunStats
	err := runsafe.Run(func() (err error) {
		res, rs, err = e.runFn(jctx, sp, e.journalPath(id), progress)
		return err
	})

	e.mu.Lock()
	defer e.mu.Unlock()
	j.cancel = nil
	if e.killed.Load() {
		return // SIGKILL semantics: not even a state write
	}
	if err != nil && isCtxErr(err) {
		switch {
		case j.userCancel:
			e.settleLocked(j, StateCancelled, &ErrorInfo{Kind: "cancelled", Message: err.Error()}, rs)
			e.cfg.Counters.Add("jobs_cancelled_total", 1)
		case e.stopping.Load():
			// Graceful drain: leave the on-disk state running so the next
			// boot resumes from the journal.
			return
		default:
			// The per-job deadline fired.
			e.settleLocked(j, StateFailed, &ErrorInfo{Kind: "deadline", Message: err.Error()}, rs)
			e.cfg.Counters.Add("jobs_failed_total", 1)
		}
		return
	}
	if err != nil {
		e.settleLocked(j, StateFailed, classify(err), rs)
		e.cfg.Counters.Add("jobs_failed_total", 1)
		return
	}
	// The sweep ran to completion; isolated cell failures fail the job
	// with a typed error but still persist the partial result.
	if werr := e.writeResultLocked(id, res); werr != nil {
		e.settleLocked(j, StateFailed, &ErrorInfo{Kind: "store", Message: werr.Error()}, rs)
		e.cfg.Counters.Add("jobs_failed_total", 1)
		return
	}
	if len(res.Errors) > 0 {
		e.settleLocked(j, StateFailed, &ErrorInfo{Kind: "sweep", Message: res.Errors[0]}, rs)
		e.cfg.Counters.Add("jobs_failed_total", 1)
		return
	}
	e.settleLocked(j, StateDone, nil, rs)
	e.cfg.Counters.Add("jobs_done_total", 1)
}

// settleLocked applies a terminal transition and persists it durably.
func (e *Engine) settleLocked(j *job, st State, info *ErrorInfo, rs RunStats) {
	j.rec.State = st
	j.rec.Error = info
	j.rec.Restored += rs.Restored
	if st == StateDone {
		j.rec.CellsDone = j.rec.CellsTotal
	}
	e.cfg.Counters.Add("job_cells_restored_total", uint64(rs.Restored))
	e.persistLocked(j, true)
	e.settleRecoveryLocked(j)
}

// settleRecoveryLocked retires a boot-recovery obligation once the job it
// tracked has settled.
func (e *Engine) settleRecoveryLocked(j *job) {
	if j.recovery {
		j.recovery = false
		e.recovering.Add(-1)
	}
}

// persistLocked rewrites the job's record file. important selects
// power-fail durability (when the engine is configured for it): state
// transitions sync, throttled progress updates don't.
func (e *Engine) persistLocked(j *job, important bool) {
	j.rec.Updated = timestamp()
	data, err := seal(&j.rec)
	if err == nil {
		err = writeFileAtomic(filepath.Join(e.cfg.Dir, j.rec.ID, recordFile), data, important && e.cfg.Fsync)
	}
	if err != nil {
		// A record-write failure must not kill the job: the journal still
		// carries the cells. Count it and keep going.
		e.cfg.Counters.Add("job_record_write_errors_total", 1)
	}
}

// writeResultLocked seals a finished job's result into its per-job
// result file.
func (e *Engine) writeResultLocked(id string, res *Result) error {
	data, err := seal(res)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(e.cfg.Dir, id, resultFile), data, e.cfg.Fsync)
}

// classify maps an execution error to the typed terminal payload.
func classify(err error) *ErrorInfo {
	var pe *runsafe.PanicError
	switch {
	case errors.As(err, &pe):
		return &ErrorInfo{Kind: "panic", Message: pe.Error()}
	default:
		return &ErrorInfo{Kind: "measure", Message: err.Error()}
	}
}

// execute runs one job attempt: the spec's grid pointed at the job's
// journal.
func (e *Engine) execute(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, RunStats, error) {
	return sp.Run(ctx, imtrans.SweepOptions{
		Parallelism:    e.cfg.Parallelism,
		Checkpoint:     journalPath,
		CheckpointSync: e.cfg.Fsync,
		Progress:       progress,
	})
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// timestamp is the record clock: RFC3339 UTC with second precision.
func timestamp() string { return time.Now().UTC().Format(time.RFC3339) }
