package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"imtrans/internal/checkpoint"
	"imtrans/internal/runsafe"
)

// testSpec builds a valid spec whose content address varies with n.
func testSpec(n int) *Spec {
	sp, err := ParseSpec([]byte(fmt.Sprintf(`{"benchmarks":[{"name":"mmul","n":%d}]}`, n)))
	if err != nil {
		panic(err)
	}
	return sp
}

// stubResult fabricates a complete result for a spec's grid.
func stubResult(sp *Spec) *Result {
	rows, cols := sp.Grid()
	res := &Result{Done: make([][]bool, rows)}
	for i := range res.Done {
		res.Done[i] = make([]bool, cols)
		for k := range res.Done[i] {
			res.Done[i][k] = true
		}
	}
	for _, b := range sp.Benchmarks {
		res.Benchmarks = append(res.Benchmarks, b.Name)
	}
	return res
}

func openTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Stop(ctx)
	})
	return e
}

func waitState(t *testing.T, e *Engine, id string, want State) Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := e.Get(id); ok && rec.State == want {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, _ := e.Get(id)
	t.Fatalf("job %s never reached %s (state %s, err %+v)", id, want, rec.State, rec.Error)
	return Record{}
}

// TestJobStateTransitions drives every terminal transition of the state
// machine through a scriptable execution stub: queued → running → done,
// each failure class with its typed error kind, cooperative cancellation,
// and the per-job deadline.
func TestJobStateTransitions(t *testing.T) {
	cases := []struct {
		name     string
		deadline time.Duration
		run      func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error)
		cancel   bool // cancel once running
		want     State
		wantKind string
	}{
		{
			name: "done",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				return stubResult(sp), runStats{restored: 1}, nil
			},
			want: StateDone,
		},
		{
			name: "failed-measure",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				return nil, runStats{}, errors.New("encode blew up")
			},
			want: StateFailed, wantKind: "measure",
		},
		{
			name: "failed-panic",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				return nil, runStats{}, &runsafe.PanicError{Value: "kaboom"}
			},
			want: StateFailed, wantKind: "panic",
		},
		{
			// A non-empty directory where the result belongs makes the
			// result's rename fail, even for root.
			name: "failed-store",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				if err := os.MkdirAll(filepath.Join(jobDir, resultFile, "occupied"), 0o755); err != nil {
					return nil, runStats{}, err
				}
				return stubResult(sp), runStats{}, nil
			},
			want: StateFailed, wantKind: "store",
		},
		{
			name: "failed-isolated-cells",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				res := stubResult(sp)
				res.Done[0][0] = false
				res.Errors = []string{"mmul/k=5: cell fault"}
				return res, runStats{}, nil
			},
			want: StateFailed, wantKind: "sweep",
		},
		{
			name:     "failed-deadline",
			deadline: 30 * time.Millisecond,
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				<-ctx.Done()
				return nil, runStats{}, ctx.Err()
			},
			want: StateFailed, wantKind: "deadline",
		},
		{
			name: "cancelled-while-running",
			run: func(ctx context.Context, sp *Spec, jobDir string) (*Result, runStats, error) {
				<-ctx.Done()
				return nil, runStats{}, ctx.Err()
			},
			cancel: true,
			want:   StateCancelled, wantKind: "cancelled",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := openTestEngine(t, Config{DefaultDeadline: tc.deadline})
			started := make(chan struct{})
			e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
				close(started)
				return tc.run(ctx, sp, filepath.Dir(journalPath))
			}
			sp := testSpec(8)
			rec, created, err := e.Submit(sp)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if !created || rec.State != StateQueued && rec.State != StateRunning {
				t.Fatalf("submit: created=%v state=%s", created, rec.State)
			}
			<-started
			if tc.cancel {
				if _, ok := e.Cancel(sp.ID()); !ok {
					t.Fatal("Cancel: job unknown")
				}
			}
			got := waitState(t, e, sp.ID(), tc.want)
			if tc.wantKind == "" {
				if got.Error != nil {
					t.Fatalf("terminal error on a clean run: %+v", got.Error)
				}
			} else if got.Error == nil || got.Error.Kind != tc.wantKind {
				t.Fatalf("error kind = %+v, want %q", got.Error, tc.wantKind)
			}
			if got.Attempts != 1 {
				t.Fatalf("attempts = %d, want 1", got.Attempts)
			}
			if tc.want == StateDone {
				if got.CellsDone != got.CellsTotal {
					t.Fatalf("done job reports %d/%d cells", got.CellsDone, got.CellsTotal)
				}
				if got.Restored != 1 || got.Retries != 0 {
					t.Fatalf("run stats not folded into the record: %+v", got)
				}
			}
			// The on-disk record must agree with the in-memory one.
			disk, err := readRecord(filepath.Join(e.cfg.Dir, sp.ID(), recordFile))
			if err != nil {
				t.Fatalf("readRecord: %v", err)
			}
			if disk.State != got.State {
				t.Fatalf("disk state %s != reported %s", disk.State, got.State)
			}
		})
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := openTestEngine(t, Config{MaxConcurrent: 1})
	release := make(chan struct{})
	running := make(chan struct{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		close(running)
		select {
		case <-release:
			return stubResult(sp), runStats{}, nil
		case <-ctx.Done():
			return nil, runStats{}, ctx.Err()
		}
	}
	blocker, queued := testSpec(1), testSpec(2)
	if _, _, err := e.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-running
	if _, _, err := e.Submit(queued); err != nil {
		t.Fatal(err)
	}
	rec, ok := e.Get(queued.ID())
	if !ok || rec.State != StateQueued {
		t.Fatalf("second job state = %s, want queued behind the single slot", rec.State)
	}
	rec, ok = e.Cancel(queued.ID())
	if !ok || rec.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", rec.State)
	}
	if rec.Error == nil || rec.Error.Kind != "cancelled" {
		t.Fatalf("cancelled queued job error = %+v", rec.Error)
	}
	if rec.Attempts != 0 {
		t.Fatalf("cancelled-while-queued job has %d attempts, want 0", rec.Attempts)
	}
	close(release)
	waitState(t, e, blocker.ID(), StateDone)
	// The cancelled job must never have started.
	if got, _ := e.Get(queued.ID()); got.State != StateCancelled {
		t.Fatalf("cancelled job restarted: %s", got.State)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := openTestEngine(t, Config{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		return stubResult(sp), runStats{}, nil
	}
	sp := testSpec(3)
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, e, sp.ID(), StateDone)

	// Cancelling a finished job is a no-op that reports the record.
	rec, ok := e.Cancel(sp.ID())
	if !ok || rec.State != StateDone {
		t.Fatalf("cancel-after-done: ok=%v state=%s", ok, rec.State)
	}
	if rec.Updated != done.Updated {
		t.Fatal("cancel-after-done rewrote the record")
	}
	// Double cancel of a terminal job stays a no-op.
	rec2, ok := e.Cancel(sp.ID())
	if !ok || rec2 != rec {
		t.Fatalf("double cancel changed the record: %+v vs %+v", rec2, rec)
	}
	if _, ok := e.Cancel("0000000000000000"); ok {
		t.Fatal("cancelling an unknown job reported ok")
	}
}

func TestResultBytesByState(t *testing.T) {
	e := openTestEngine(t, Config{})
	fail := make(chan bool, 1)
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		if <-fail {
			return nil, runStats{}, errors.New("cell exploded")
		}
		return stubResult(sp), runStats{}, nil
	}

	if _, _, err := e.ResultBytes("0000000000000000"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unknown job: err = %v, want os.ErrNotExist", err)
	}

	failed := testSpec(4)
	fail <- true
	if _, _, err := e.Submit(failed); err != nil {
		t.Fatal(err)
	}
	waitState(t, e, failed.ID(), StateFailed)
	_, rec, err := e.ResultBytes(failed.ID())
	if err == nil || errors.Is(err, ErrNotFinished) {
		t.Fatalf("failed job result err = %v, want a terminal-state error", err)
	}
	if rec.Error == nil || rec.Error.Kind != "measure" {
		t.Fatalf("failed job record lacks its typed error: %+v", rec.Error)
	}

	ok := testSpec(5)
	fail <- false
	if _, _, err := e.Submit(ok); err != nil {
		t.Fatal(err)
	}
	waitState(t, e, ok.ID(), StateDone)
	payload, rec, err := e.ResultBytes(ok.ID())
	if err != nil {
		t.Fatalf("done job result: %v", err)
	}
	if rec.State != StateDone || len(payload) == 0 {
		t.Fatalf("done job: state=%s payload=%d bytes", rec.State, len(payload))
	}
	again, _, err := e.ResultBytes(ok.ID())
	if err != nil || !bytes.Equal(payload, again) {
		t.Fatalf("result fetch is not stable: %v", err)
	}
}

func TestResultBytesWhileRunning(t *testing.T) {
	e := openTestEngine(t, Config{})
	release := make(chan struct{})
	running := make(chan struct{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		close(running)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stubResult(sp), runStats{}, nil
	}
	sp := testSpec(6)
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	<-running
	_, rec, err := e.ResultBytes(sp.ID())
	if !errors.Is(err, ErrNotFinished) {
		t.Fatalf("running job result err = %v, want ErrNotFinished", err)
	}
	if rec.State != StateRunning {
		t.Fatalf("state = %s, want running", rec.State)
	}
	close(release)
	waitState(t, e, sp.ID(), StateDone)
}

func TestSubmitDeduplicates(t *testing.T) {
	e := openTestEngine(t, Config{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		return stubResult(sp), runStats{}, nil
	}
	sp := testSpec(7)
	_, created, err := e.Submit(sp)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	waitState(t, e, sp.ID(), StateDone)
	rec, created, err := e.Submit(testSpec(7)) // equal spec, fresh parse
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("identical spec scheduled a second execution")
	}
	if rec.State != StateDone {
		t.Fatalf("dedup record state = %s, want done", rec.State)
	}
	if got := e.Counters().Get("jobs_deduped_total"); got != 1 {
		t.Fatalf("jobs_deduped_total = %d, want 1", got)
	}
}

func TestResubmitRequeuesFailedAndCancelled(t *testing.T) {
	e := openTestEngine(t, Config{})
	fail := make(chan bool, 2)
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		if <-fail {
			return nil, runStats{}, errors.New("transient")
		}
		return stubResult(sp), runStats{}, nil
	}
	sp := testSpec(8)
	fail <- true
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, e, sp.ID(), StateFailed)

	fail <- false
	rec, created, err := e.Submit(sp)
	if err != nil || !created {
		t.Fatalf("resubmit of a failed job: created=%v err=%v", created, err)
	}
	if rec.Error != nil {
		t.Fatalf("requeued record still carries the old error: %+v", rec.Error)
	}
	got := waitState(t, e, sp.ID(), StateDone)
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 across the resubmission", got.Attempts)
	}
}

func TestSubmitRejectsUnknownBenchmark(t *testing.T) {
	e := openTestEngine(t, Config{})
	sp := &Spec{Benchmarks: []BenchmarkRef{{Name: "no-such-kernel"}}}
	_, _, err := e.Submit(sp)
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SpecError", err)
	}
	if _, ok := e.Get(sp.ID()); ok {
		t.Fatal("rejected spec left a job behind")
	}
}

// TestStopLeavesRunningJobResumable drains the engine mid-job and asserts
// the exact recovery contract: the on-disk state stays running (the
// marker Resume re-queues from), and a fresh engine finishes the job.
func TestStopLeavesRunningJobResumable(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		close(running)
		<-ctx.Done()
		return nil, runStats{}, ctx.Err()
	}
	sp := testSpec(9)
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	disk, err := readRecord(filepath.Join(dir, sp.ID(), recordFile))
	if err != nil {
		t.Fatal(err)
	}
	if disk.State != StateRunning {
		t.Fatalf("on-disk state after drain = %s, want running", disk.State)
	}
	if _, _, err := e.Submit(testSpec(10)); err == nil {
		t.Fatal("a stopped engine accepted a submission")
	}

	e2 := openTestEngine(t, Config{Dir: dir})
	e2.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		return stubResult(sp), runStats{}, nil
	}
	if e2.Recovering() {
		t.Fatal("recovering before Resume")
	}
	e2.Resume()
	got := waitState(t, e2, sp.ID(), StateDone)
	if got.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", got.Resumes)
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupted, one resumed)", got.Attempts)
	}
	waitFalse(t, e2.Recovering)
	if got := e2.Counters().Get("jobs_resumed_total"); got != 1 {
		t.Fatalf("jobs_resumed_total = %d, want 1", got)
	}
}

func waitFalse(t *testing.T, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !f() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never cleared")
}

// TestKillWritesNothing asserts SIGKILL semantics: after Kill the store
// bytes are exactly what they were the moment before — no terminal state,
// no goodbye write.
func TestKillWritesNothing(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		close(running)
		<-ctx.Done()
		return nil, runStats{}, ctx.Err()
	}
	sp := testSpec(11)
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	<-running
	recPath := filepath.Join(dir, sp.ID(), recordFile)
	before, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	e.Kill()
	after, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Kill rewrote the record:\nbefore: %s\nafter:  %s", before, after)
	}
	disk, err := readRecord(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if disk.State != StateRunning {
		t.Fatalf("state after kill = %s, want running", disk.State)
	}
}

func TestCorruptStoreFilesMarkJobCorrupt(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, dir, id string)
	}{
		{"record-garbage", func(t *testing.T, dir, id string) {
			writeOver(t, filepath.Join(dir, id, recordFile), []byte("garbage"))
		}},
		{"record-bit-flip", func(t *testing.T, dir, id string) {
			p := filepath.Join(dir, id, recordFile)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			writeOver(t, p, bytes.Replace(data, []byte(`"done"`), []byte(`"gone"`), 1))
		}},
		{"spec-hash-mismatch", func(t *testing.T, dir, id string) {
			writeOver(t, filepath.Join(dir, id, specFile), []byte(`{"benchmarks":[{"name":"mmul","n":999}]}`))
		}},
		{"spec-missing", func(t *testing.T, dir, id string) {
			if err := os.Remove(filepath.Join(dir, id, specFile)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
				return stubResult(sp), runStats{}, nil
			}
			sp := testSpec(12)
			if _, _, err := e.Submit(sp); err != nil {
				t.Fatal(err)
			}
			waitState(t, e, sp.ID(), StateDone)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			e.Stop(ctx)
			cancel()

			tc.tamper(t, dir, sp.ID())

			e2 := openTestEngine(t, Config{Dir: dir})
			e2.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
				return stubResult(sp), runStats{}, nil
			}
			e2.Resume()
			rec, ok := e2.Get(sp.ID())
			if !ok {
				t.Fatal("corrupt job vanished from the scan")
			}
			if rec.State != StateCorrupt {
				t.Fatalf("state = %s, want corrupt", rec.State)
			}
			if rec.Error == nil || rec.Error.Kind != "corrupt" {
				t.Fatalf("corrupt job error = %+v", rec.Error)
			}
			if _, _, err := e2.ResultBytes(sp.ID()); err == nil {
				t.Fatal("corrupt job served a result")
			}
			if got := e2.Counters().Get("jobs_corrupt_total"); got != 1 {
				t.Fatalf("jobs_corrupt_total = %d, want 1", got)
			}

			// Resubmitting the spec wipes the damage and runs fresh.
			rec, created, err := e2.Submit(sp)
			if err != nil || !created {
				t.Fatalf("resubmit over corrupt: created=%v err=%v", created, err)
			}
			if rec.State == StateCorrupt {
				t.Fatal("resubmit left the job corrupt")
			}
			got := waitState(t, e2, sp.ID(), StateDone)
			if got.Error != nil {
				t.Fatalf("recreated job error = %+v", got.Error)
			}
			if n := e2.Counters().Get("jobs_corrupt_wiped_total"); n != 1 {
				t.Fatalf("jobs_corrupt_wiped_total = %d, want 1", n)
			}
		})
	}
}

// TestDamagedResultMarksJobCorrupt: a done job whose sealed result no
// longer verifies becomes corrupt on the fetch that finds the damage —
// persisted, so a reopened engine agrees — and a resubmission of its
// spec wipes it and re-runs it to the original bytes.
func TestDamagedResultMarksJobCorrupt(t *testing.T) {
	dir := t.TempDir()
	stub := func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		return stubResult(sp), runStats{}, nil
	}
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.runFn = stub
	sp := testSpec(14)
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, e, sp.ID(), StateDone)
	want, _, err := e.ResultBytes(sp.ID())
	if err != nil {
		t.Fatal(err)
	}

	p := filepath.Join(dir, sp.ID(), resultFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	writeOver(t, p, data)

	if _, _, err := e.ResultBytes(sp.ID()); err == nil {
		t.Fatal("damaged result was served")
	}
	if rec, _ := e.Get(sp.ID()); rec.State != StateCorrupt || rec.Error == nil || rec.Error.Kind != "corrupt" {
		t.Fatalf("after the damaged fetch: state %s, error %+v; want corrupt", rec.State, rec.Error)
	}
	if n := e.Counters().Get("jobs_corrupt_total"); n != 1 {
		t.Fatalf("jobs_corrupt_total = %d, want 1", n)
	}
	if _, rec, err := e.ResultBytes(sp.ID()); err == nil || rec.State != StateCorrupt {
		t.Fatalf("second fetch: state %s, err %v; want corrupt", rec.State, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	e.Stop(ctx)
	cancel()

	e2 := openTestEngine(t, Config{Dir: dir})
	e2.runFn = stub
	if rec, _ := e2.Get(sp.ID()); rec.State != StateCorrupt {
		t.Fatalf("after reopen: state %s, want corrupt", rec.State)
	}
	if _, created, err := e2.Submit(sp); err != nil || !created {
		t.Fatalf("resubmit: created=%v err=%v", created, err)
	}
	waitState(t, e2, sp.ID(), StateDone)
	got, _, err := e2.ResultBytes(sp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-run result differs:\n got %s\nwant %s", got, want)
	}
}

func writeOver(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestListNewestFirstAndStateCounts(t *testing.T) {
	e := openTestEngine(t, Config{})
	e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
		return stubResult(sp), runStats{}, nil
	}
	ids := make([]string, 0, 3)
	for i := 1; i <= 3; i++ {
		sp := testSpec(20 + i)
		if _, _, err := e.Submit(sp); err != nil {
			t.Fatal(err)
		}
		waitState(t, e, sp.ID(), StateDone)
		ids = append(ids, sp.ID())
	}
	list := e.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Created < list[i].Created {
			t.Fatalf("list not newest-first: %s before %s", list[i-1].Created, list[i].Created)
		}
	}
	counts := e.StateCounts()
	if counts[StateDone] != 3 {
		t.Fatalf("state counts = %v, want 3 done", counts)
	}
	_ = ids
}

// TestCrashResumeBitIdentical is the tentpole assertion, engine-level: a
// real sweep job killed mid-run (SIGKILL semantics — no writes after the
// kill point) and resumed by a fresh engine produces a result payload
// byte-identical to an uninterrupted run of the same spec.
func TestCrashResumeBitIdentical(t *testing.T) {
	spec := func() *Spec {
		sp, err := ParseSpec([]byte(`{"benchmarks":[{"name":"mmul","n":16},{"name":"sor","n":12},{"name":"fft","n":64},{"name":"mmul","n":20}]}`))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}

	// Clean reference run, uninterrupted.
	clean := openTestEngine(t, Config{Parallelism: 2})
	if _, _, err := clean.Submit(spec()); err != nil {
		t.Fatal(err)
	}
	waitState(t, clean, spec().ID(), StateDone)
	wantPayload, _, err := clean.ResultBytes(spec().ID())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: freeze the sweep after two cells have been
	// journalled, kill the engine with no further writes, then recover.
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	trigger := make(chan struct{})
	release := make(chan struct{})
	e.testHookProgress = func(id string, done, total int) {
		if done >= 2 {
			once.Do(func() { close(trigger) })
			<-release
		}
	}
	if _, _, err := e.Submit(spec()); err != nil {
		t.Fatal(err)
	}
	<-trigger
	killDone := make(chan struct{})
	go func() {
		e.Kill()
		close(killDone)
	}()
	// Kill flags the engine before waiting on the workers; give that a
	// moment, then let the frozen progress callbacks drain into the
	// cancelled context.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-killDone

	disk, err := readRecord(filepath.Join(dir, spec().ID(), recordFile))
	if err != nil {
		t.Fatal(err)
	}
	if disk.State != StateRunning {
		t.Fatalf("state at the kill point = %s, want running", disk.State)
	}
	if _, err := os.Stat(filepath.Join(dir, spec().ID(), journalFile)); err != nil {
		t.Fatalf("no journal at the kill point: %v", err)
	}

	// Recovery: a fresh engine over the same store resumes and finishes.
	// A hook parks the resumed run at its first progress report so the
	// recovery window is observable before the job races to done.
	e2 := openTestEngine(t, Config{Dir: dir, Parallelism: 2})
	var onceResume sync.Once
	resumeStarted := make(chan struct{})
	resumeGo := make(chan struct{})
	e2.testHookProgress = func(id string, done, total int) {
		onceResume.Do(func() {
			close(resumeStarted)
			<-resumeGo
		})
	}
	e2.Resume()
	<-resumeStarted
	if !e2.Recovering() {
		t.Fatal("engine with an interrupted job does not report recovering")
	}
	close(resumeGo)
	got := waitState(t, e2, spec().ID(), StateDone)
	if got.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", got.Resumes)
	}
	if got.Restored < 2 {
		t.Fatalf("restored = %d, want at least the 2 journalled cells", got.Restored)
	}
	waitFalse(t, e2.Recovering)

	gotPayload, _, err := e2.ResultBytes(spec().ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPayload, wantPayload) {
		t.Fatalf("resumed result differs from the uninterrupted run:\nresumed: %d bytes\nclean:   %d bytes", len(gotPayload), len(wantPayload))
	}
	if n := e2.Counters().Get("job_cells_restored_total"); n < 2 {
		t.Fatalf("job_cells_restored_total = %d, want >= 2", n)
	}
}

// TestRealSweepJobEndToEnd exercises the default execution path without
// interruption: submit, progress monotonicity, done, decodable result.
func TestRealSweepJobEndToEnd(t *testing.T) {
	e := openTestEngine(t, Config{Parallelism: 2})
	var mu sync.Mutex
	var seen []int
	e.testHookProgress = func(id string, done, total int) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}
	sp, err := ParseSpec([]byte(`{"benchmarks":[{"name":"mmul","n":16},{"name":"sor","n":12}],"configs":[{},{"block_size":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Submit(sp); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, e, sp.ID(), StateDone)
	if got.CellsTotal != 4 || got.CellsDone != 4 {
		t.Fatalf("cells = %d/%d, want 4/4", got.CellsDone, got.CellsTotal)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	last := seen[len(seen)-1]
	if last != 4 {
		t.Fatalf("final progress = %d, want 4", last)
	}
}

// TestResumeResetsUnreadableJournal plants a journal that fails
// verification under a job whose record says running: the clean run's
// journal with one byte of a middle line flipped, and the same cells as a
// version-1 whole document. Boot recovery must remove the journal, count
// the reset, and re-run the job from zero cells to a result byte-identical
// to an uninterrupted run.
func TestResumeResetsUnreadableJournal(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"benchmarks":[{"name":"mmul","n":16},{"name":"sor","n":12}],"configs":[{},{"block_size":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	id := sp.ID()
	clean := openTestEngine(t, Config{Parallelism: 2})
	if _, _, err := clean.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, clean, id, StateDone)
	wantPayload, _, err := clean.ResultBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(clean.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Load(clean.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Cells) != 4 {
		t.Fatalf("clean journal holds %d cells, want 4", len(ck.Cells))
	}

	corrupted := append([]byte(nil), journal...)
	lines := bytes.SplitAfter(journal, []byte{'\n'})
	corrupted[len(lines[0])+len(lines[1])+len(lines[2])/2] ^= 0x01
	version1, err := json.MarshalIndent(map[string]any{
		"magic": checkpoint.Magic, "version": 1, "grid": ck.Grid,
		"benchmarks": ck.Benchmarks, "configs": ck.Configs, "cells": ck.Cells, "crc32": 0,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		planted []byte
	}{{"corrupted", corrupted}, {"version-1", version1}} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := checkpoint.Read(bytes.NewReader(tc.planted)); err == nil {
				t.Fatal("planted journal verifies")
			}
			// Leave the job running on disk, with no journal of its own.
			dir := t.TempDir()
			e, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			running := make(chan struct{})
			e.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
				close(running)
				<-ctx.Done()
				return nil, runStats{}, ctx.Err()
			}
			if _, _, err := e.Submit(sp); err != nil {
				t.Fatal(err)
			}
			<-running
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := e.Stop(ctx); err != nil {
				t.Fatal(err)
			}
			writeOver(t, e.journalPath(id), tc.planted)

			e2 := openTestEngine(t, Config{Dir: dir, Parallelism: 2})
			atStart := make(chan error, 1)
			e2.runFn = func(ctx context.Context, sp *Spec, journalPath string, progress func(done, total int)) (*Result, runStats, error) {
				_, err := os.Stat(journalPath)
				atStart <- err
				return e2.execute(ctx, sp, journalPath, progress)
			}
			e2.Resume()
			got := waitState(t, e2, id, StateDone)
			if err := <-atStart; !os.IsNotExist(err) {
				t.Fatalf("journal at the resumed run's start: stat err = %v, want it removed", err)
			}
			if n := e2.Counters().Get("job_journals_reset_total"); n != 1 {
				t.Fatalf("job_journals_reset_total = %d, want 1", n)
			}
			if got.Resumes != 1 || got.Restored != 0 {
				t.Fatalf("resumes = %d, restored = %d, want 1 and 0", got.Resumes, got.Restored)
			}
			gotPayload, _, err := e2.ResultBytes(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotPayload, wantPayload) {
				t.Fatalf("result after the reset differs from the uninterrupted run:\nreset: %d bytes\nclean: %d bytes", len(gotPayload), len(wantPayload))
			}
		})
	}
}

// TestResumeJobWrittenWithRetries recovers a job directory as a build
// that retried grid cells left it: a spec asking for "retries": 3, a
// sealed running record carrying "retries": 2, and a journal holding two
// of the four cells. Both retries fields are ignored, but both must still
// load: recovery must finish the job, not mark it corrupt, with a result
// byte-identical to a fresh run of the same spec.
func TestResumeJobWrittenWithRetries(t *testing.T) {
	specBytes := []byte(`{"benchmarks":[{"name":"mmul","n":16},{"name":"sor","n":12}],"configs":[{},{"block_size":4}],"retries":3}`)
	sp, err := ParseSpec(specBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sp.Canonical(), specBytes) {
		t.Fatalf("spec bytes are not canonical: %s", sp.Canonical())
	}
	id := sp.ID()

	clean := openTestEngine(t, Config{Parallelism: 2})
	if _, _, err := clean.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, clean, id, StateDone)
	wantPayload, _, err := clean.ResultBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(clean.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	// The header and the first two cells: what a kill mid-run leaves.
	partial := bytes.Join(bytes.SplitAfter(journal, []byte{'\n'})[:3], nil)

	dir := t.TempDir()
	jobDir := filepath.Join(dir, id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	payload := fmt.Sprintf(`{"id":%q,"state":"running","spec_sha256":%q,`+
		`"created":"2026-01-02T03:04:05Z","updated":"2026-01-02T03:04:06Z",`+
		`"cells_done":2,"cells_total":4,"restored":0,"retries":2,"attempts":1,"resumes":0}`, id, id)
	record := fmt.Sprintf(`{"magic":"imtrans-job","version":1,"payload":%s,"crc32":%d}`+"\n",
		payload, crc32.ChecksumIEEE([]byte(payload)))
	for name, data := range map[string][]byte{
		specFile:    specBytes,
		recordFile:  []byte(record),
		journalFile: partial,
	} {
		if err := os.WriteFile(filepath.Join(jobDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := checkpoint.Load(filepath.Join(jobDir, journalFile))
	if err != nil || len(ck.Cells) != 2 {
		t.Fatalf("planted journal: %v, %d cells, want 2", err, len(ck.Cells))
	}

	e := openTestEngine(t, Config{Dir: dir, Parallelism: 2})
	if rec, ok := e.Get(id); !ok || rec.State != StateRunning {
		t.Fatalf("planted job loads as %s (%+v), want running", rec.State, rec.Error)
	}
	e.Resume()
	got := waitState(t, e, id, StateDone)
	if got.Resumes != 1 || got.Restored != 2 {
		t.Fatalf("resumes = %d, restored = %d, want 1 and 2", got.Resumes, got.Restored)
	}
	gotPayload, _, err := e.ResultBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPayload, wantPayload) {
		t.Fatalf("resumed result differs from a fresh run:\nresumed: %d bytes\nfresh:   %d bytes", len(gotPayload), len(wantPayload))
	}
}
