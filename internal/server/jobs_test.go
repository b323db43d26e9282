package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imtrans/internal/jobs"
)

// jobsServer builds a daemon with the job API enabled and stops its
// engine on cleanup.
func jobsServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.JobsDir == "" {
		cfg.JobsDir = t.TempDir()
	}
	if cfg.JobsParallelism == 0 {
		cfg.JobsParallelism = 2
	}
	s := mustNew(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Jobs().Stop(ctx)
	})
	return s
}

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, path, nil))
	return w
}

func waitJobState(t *testing.T, s *Server, id string, want jobs.State) jobs.Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := s.Jobs().Get(id); ok && rec.State == want {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, _ := s.Jobs().Get(id)
	t.Fatalf("job %s never reached %s (state %s, err %+v)", id, want, rec.State, rec.Error)
	return jobs.Record{}
}

// TestJobsAPILifecycle walks the whole happy path over HTTP: submit
// (202), dedup (200), status, conflict-then-success on the result fetch,
// and byte-stable result bodies across fetches.
func TestJobsAPILifecycle(t *testing.T) {
	s := jobsServer(t, Config{})
	h := s.Handler()
	const spec = `{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2}]}`

	if w := get(t, h, "/v1/jobs"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"jobs":[]`) {
		t.Fatalf("empty list: %d %s", w.Code, w.Body)
	}

	w := post(t, h, "/v1/jobs", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Created || sub.Job.ID == "" || sub.Job.CellsTotal != 2 {
		t.Fatalf("submit response: %+v", sub)
	}
	id := sub.Job.ID

	if w := get(t, h, "/v1/jobs/"+id); w.Code != http.StatusOK {
		t.Fatalf("status: %d %s", w.Code, w.Body)
	}

	done := waitJobState(t, s, id, jobs.StateDone)
	if done.CellsDone != 2 {
		t.Fatalf("done job cells = %d, want 2", done.CellsDone)
	}

	r1 := get(t, h, "/v1/jobs/"+id+"/result")
	if r1.Code != http.StatusOK {
		t.Fatalf("result: %d %s", r1.Code, r1.Body)
	}
	var res jobs.Result
	if err := json.Unmarshal(r1.Body.Bytes(), &res); err != nil {
		t.Fatalf("result body does not decode: %v", err)
	}
	if len(res.Measurements) != 2 || !res.Done[0][0] || !res.Done[1][0] {
		t.Fatalf("result content: %+v", res)
	}
	r2 := get(t, h, "/v1/jobs/"+id+"/result")
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatal("two result fetches returned different bytes")
	}

	// Identical spec (different formatting) deduplicates: 200, created=false.
	w = post(t, h, "/v1/jobs", "{\n \"benchmarks\": [ {\"name\":\"mmul\",\"n\":24}, {\"name\":\"sor\",\"n\":32,\"iters\":2} ]\n}")
	if w.Code != http.StatusOK {
		t.Fatalf("dedup submit: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Created || sub.Job.ID != id {
		t.Fatalf("dedup response: %+v", sub)
	}

	if w := get(t, h, "/v1/jobs"); !strings.Contains(w.Body.String(), id) {
		t.Fatalf("list omits the job: %s", w.Body)
	}
}

func TestJobsAPIRejects(t *testing.T) {
	s := jobsServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"not-json", "not json"},
		{"unknown-field", `{"benchmarks":[{"name":"mmul"}],"turbo":true}`},
		{"no-benchmarks", `{"benchmarks":[]}`},
		{"unknown-benchmark", `{"benchmarks":[{"name":"quicksort3"}]}`},
		{"trailing-data", `{"benchmarks":[{"name":"mmul"}]}{}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := post(t, h, "/v1/jobs", tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
		})
	}
	if w := get(t, h, "/v1/jobs/ffffffffffffffff"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job status: %d", w.Code)
	}
	if w := get(t, h, "/v1/jobs/ffffffffffffffff/result"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job result: %d", w.Code)
	}
	if w := del(t, h, "/v1/jobs/ffffffffffffffff"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown job cancel: %d", w.Code)
	}
}

// TestJobsAPICancelAndFailedResult cancels a running job over HTTP,
// verifies the cancel is idempotent, and asserts a terminal job's result
// fetch carries the typed error payload.
func TestJobsAPICancelAndFailedResult(t *testing.T) {
	s := jobsServer(t, Config{JobsParallelism: 1})
	h := s.Handler()
	// Big enough that cancellation lands mid-run.
	const spec = `{"benchmarks":[{"name":"mmul","n":96},{"name":"ej","n":24,"iters":800},{"name":"lu","n":80}]}`
	w := post(t, h, "/v1/jobs", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	id := sub.Job.ID

	if w := del(t, h, "/v1/jobs/"+id); w.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", w.Code, w.Body)
	}
	rec := waitJobState(t, s, id, jobs.StateCancelled)
	if rec.Error == nil || rec.Error.Kind != "cancelled" {
		t.Fatalf("cancelled job error = %+v", rec.Error)
	}

	// Idempotent double cancel over HTTP.
	w2 := del(t, h, "/v1/jobs/"+id)
	if w2.Code != http.StatusOK || !strings.Contains(w2.Body.String(), `"cancelled"`) {
		t.Fatalf("double cancel: %d %s", w2.Code, w2.Body)
	}

	// The result fetch of a cancelled job is a 409 carrying the typed error.
	r := get(t, h, "/v1/jobs/"+id+"/result")
	if r.Code != http.StatusConflict {
		t.Fatalf("cancelled result: %d %s", r.Code, r.Body)
	}
	var jerr jobErrorResponse
	if err := json.Unmarshal(r.Body.Bytes(), &jerr); err != nil {
		t.Fatal(err)
	}
	if jerr.State != jobs.StateCancelled || jerr.Job == nil || jerr.Job.Kind != "cancelled" {
		t.Fatalf("cancelled result payload: %+v", jerr)
	}
}

// TestJobsAPIDamagedResult: a done job whose result file was damaged on
// disk answers 500 on the fetch that finds it, then the documented 409
// with state corrupt — also from a daemon reopened over the same
// directory — and resubmitting the spec re-runs the job to the original
// bytes.
func TestJobsAPIDamagedResult(t *testing.T) {
	dir := t.TempDir()
	s := jobsServer(t, Config{JobsDir: dir})
	const spec = `{"benchmarks":[{"name":"mmul","n":16}],"configs":[{},{"block_size":4}]}`
	submit := func(h http.Handler, want int) string {
		t.Helper()
		w := post(t, h, "/v1/jobs", spec)
		var sub JobSubmitResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil || w.Code != want {
			t.Fatalf("submit: %d %s, want %d", w.Code, w.Body, want)
		}
		return sub.Job.ID
	}
	id := submit(s.Handler(), http.StatusAccepted)
	waitJobState(t, s, id, jobs.StateDone)
	want := get(t, s.Handler(), "/v1/jobs/"+id+"/result")
	if want.Code != http.StatusOK {
		t.Fatalf("result: %d %s", want.Code, want.Body)
	}

	p := filepath.Join(dir, id, "result.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if w := get(t, s.Handler(), "/v1/jobs/"+id+"/result"); w.Code != http.StatusInternalServerError {
		t.Fatalf("damaged result fetch: %d %s, want 500", w.Code, w.Body)
	}
	corrupt409 := func(s *Server) {
		t.Helper()
		w := get(t, s.Handler(), "/v1/jobs/"+id+"/result")
		var jerr jobErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &jerr); err != nil || w.Code != http.StatusConflict || jerr.State != jobs.StateCorrupt {
			t.Fatalf("fetch after damage: %d %s, want 409 corrupt", w.Code, w.Body)
		}
	}
	corrupt409(s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Jobs().Stop(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := jobsServer(t, Config{JobsDir: dir})
	corrupt409(s2)
	if id2 := submit(s2.Handler(), http.StatusAccepted); id2 != id {
		t.Fatalf("resubmit got job %s, want %s", id2, id)
	}
	waitJobState(t, s2, id, jobs.StateDone)
	got := get(t, s2.Handler(), "/v1/jobs/"+id+"/result")
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("re-run result: %d, differs from the original:\n got %s\nwant %s", got.Code, got.Body, want.Body)
	}
}

func TestJobsMetricsGauges(t *testing.T) {
	s := jobsServer(t, Config{})
	h := s.Handler()
	w := post(t, h, "/v1/jobs", `{"benchmarks":[{"name":"mmul","n":24}]}`)
	var sub JobSubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, s, sub.Job.ID, jobs.StateDone)

	m := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`imtransd_jobs{state="done"} 1`,
		`imtransd_jobs{state="queued"} 0`,
		`imtransd_jobs{state="corrupt"} 0`,
		"imtransd_jobs_recovering 0",
		"imtransd_jobs_submitted_total 1",
		"imtransd_jobs_done_total 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadyzDegradedDuringRecovery interrupts a real job (engine-level
// SIGKILL semantics), reopens the daemon over the same store, and
// asserts /readyz reports the degradation until recovery settles.
func TestReadyzDegradedDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	// First daemon: get a job running, then kill the engine cold.
	s1 := mustNew(t, Config{JobsDir: dir, JobsParallelism: 1})
	w := post(t, s1.Handler(), "/v1/jobs", `{"benchmarks":[{"name":"mmul","n":96},{"name":"ej","n":24,"iters":800},{"name":"lu","n":80},{"name":"mmul","n":80}]}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, s1, sub.Job.ID, jobs.StateRunning)
	s1.Jobs().Kill()

	// Second daemon recovers on boot; the degraded window must be visible
	// while the resumed job still runs, then clear.
	s2 := jobsServer(t, Config{JobsDir: dir, JobsParallelism: 1})
	if w := get(t, s2.Handler(), "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz during recovery: %d", w.Code)
	} else if !strings.Contains(w.Body.String(), "degraded") {
		// The resumed job may already have settled on a fast machine —
		// only fail if recovery is still in flight yet unreported.
		if s2.Jobs().Recovering() {
			t.Fatalf("readyz hides in-flight recovery: %s", w.Body)
		}
	} else {
		m := get(t, s2.Handler(), "/metrics").Body.String()
		if !strings.Contains(m, "imtransd_jobs_recovering 1") {
			t.Error("metrics gauge does not report recovery in flight")
		}
	}
	rec := waitJobState(t, s2, sub.Job.ID, jobs.StateDone)
	if rec.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", rec.Resumes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s2.Jobs().Recovering() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w := get(t, s2.Handler(), "/readyz"); !strings.Contains(w.Body.String(), "ready") || strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("readyz after recovery: %s", w.Body)
	}
}

// --- Real-process SIGKILL crash/resume assertion -------------------------

// TestHelperDaemonProcess is not a test: it is the daemon half of
// TestDaemonSIGKILLResume, re-executed as a subprocess so the parent can
// SIGKILL a real imtransd mid-sweep.
func TestHelperDaemonProcess(t *testing.T) {
	if os.Getenv("IMTRANS_WANT_HELPER_DAEMON") != "1" {
		t.Skip("helper process for TestDaemonSIGKILLResume")
	}
	dir := os.Getenv("IMTRANS_HELPER_JOBS_DIR")
	s, err := New(Config{JobsDir: dir, JobsParallelism: 1, JobsFsync: false})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	// Publish the address atomically so the parent never reads a torn file.
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(l.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	s.Serve(l) // runs until the parent kills the process
}

func startHelperDaemon(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(filepath.Join(dir, "addr"))
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperDaemonProcess$")
	cmd.Env = append(os.Environ(),
		"IMTRANS_WANT_HELPER_DAEMON=1",
		"IMTRANS_HELPER_JOBS_DIR="+dir,
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper daemon: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		addr, err := os.ReadFile(filepath.Join(dir, "addr"))
		if err == nil {
			base := "http://" + string(addr)
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd, base
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("helper daemon never became healthy")
	return nil, ""
}

func httpJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonSIGKILLResume is the tentpole acceptance test with a real
// process boundary: a daemon subprocess is SIGKILLed mid-sweep — no
// graceful anything — restarted over the same store, and the resumed
// job's result must be byte-identical to an uninterrupted run's.
func TestDaemonSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	// The sweep captures each benchmark's trace first (cells_done stays 0),
	// then replays the grid cell by cell — so a wide kill window needs many
	// replay cells: 4 benchmarks x 8 configs = 32 journalled cells.
	const spec = `{"benchmarks":[{"name":"mmul","n":96},{"name":"ej","n":24,"iters":800},{"name":"lu","n":80},{"name":"sor","n":96,"iters":8}],` +
		`"configs":[{},{"block_size":4},{"block_size":6},{"block_size":8},{"tt_entries":32},{"bbit_entries":32},{"block_size":4,"tt_entries":32},{"exact":true}]}`

	// Uninterrupted reference run in its own store.
	cleanDir := t.TempDir()
	cleanCmd, cleanBase := startHelperDaemon(t, cleanDir)
	defer cleanCmd.Process.Kill()
	var sub JobSubmitResponse
	if code := httpJSON(t, http.MethodPost, cleanBase+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("clean submit: %d", code)
	}
	id := sub.Job.ID
	waitHTTPJobDone(t, cleanBase, id)
	cleanResult := fetchResult(t, cleanBase, id)
	cleanCmd.Process.Kill()
	cleanCmd.Wait()

	// Crash run: submit, SIGKILL strictly mid-sweep, restart, resume.
	// The cells burst in a few milliseconds once the captures are done,
	// so a poll can miss the window, and the last cells can finish
	// between the poll and the kill. A daemon whose job finished first
	// proves nothing: when the job is done before the poll sees it
	// mid-run, or the restarted daemon reads it done with no resume, the
	// kill missed and the crash run starts over in a fresh store.
	var cmd2 *exec.Cmd
	var base2 string
	for attempt := 0; attempt < 20 && cmd2 == nil; attempt++ {
		dir := t.TempDir()
		cmd, base := startHelperDaemon(t, dir)
		if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
			cmd.Process.Kill()
			t.Fatalf("submit: %d", code)
		}
		if sub.Job.ID != id {
			cmd.Process.Kill()
			t.Fatalf("content address differs across daemons: %s vs %s", sub.Job.ID, id)
		}
		killed := false
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			var rec jobs.Record
			httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &rec)
			if rec.State == jobs.StateDone {
				break
			}
			if rec.CellsDone >= 1 && rec.CellsDone <= rec.CellsTotal-8 {
				killed = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		cmd.Process.Kill() // SIGKILL: no drain, no flush, no goodbye
		cmd.Wait()
		if !killed {
			continue
		}
		restarted, restartedBase := startHelperDaemon(t, dir)
		var rec jobs.Record
		httpJSON(t, http.MethodGet, restartedBase+"/v1/jobs/"+id, "", &rec)
		switch {
		case rec.Resumes >= 1:
			cmd2, base2 = restarted, restartedBase
		case rec.State == jobs.StateDone:
			t.Logf("attempt %d: the job finished before the kill; retrying in a fresh store", attempt)
			restarted.Process.Kill()
			restarted.Wait()
		default:
			restarted.Process.Kill()
			t.Fatalf("restarted daemon reports %d resumes for a %s job, want >= 1", rec.Resumes, rec.State)
		}
	}
	if cmd2 == nil {
		t.Fatal("never caught the job mid-run to kill it in 20 tries (machine too fast for the grid?)")
	}
	defer cmd2.Process.Kill()
	waitHTTPJobDone(t, base2, id)
	resumedResult := fetchResult(t, base2, id)

	if !bytes.Equal(resumedResult, cleanResult) {
		t.Fatalf("SIGKILL-resumed result differs from the uninterrupted run (%d vs %d bytes)",
			len(resumedResult), len(cleanResult))
	}

	// The restart's telemetry must show the recovery happened.
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"imtransd_jobs_resumed_total 1", "imtransd_job_cells_restored_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("restart metrics missing %q", want)
		}
	}
}

func waitHTTPJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var rec jobs.Record
		httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &rec)
		if rec.State == jobs.StateDone {
			return
		}
		if rec.State.Terminal() {
			t.Fatalf("job settled %s: %+v", rec.State, rec.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job never finished")
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %s", resp.StatusCode, data)
	}
	return data
}
