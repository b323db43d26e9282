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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"imtrans"
)

// sweepScales mirrors the CLI's reduced sweep scales: large enough to
// exercise every kernel's hot loops, small enough for a test suite.
var sweepScales = []BenchmarkRef{
	{Name: "mmul", N: 24},
	{Name: "sor", N: 32, Iters: 2},
	{Name: "ej", N: 24, Iters: 4},
	{Name: "fft", N: 64},
	{Name: "tri", N: 32, Iters: 10},
	{Name: "lu", N: 24},
}

// mustNew builds a daemon or fails the test — the constructor can only
// error with a jobs store configured, which most tests don't use.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestMeasureBitIdentical is the service's core correctness claim: the
// grid POST /v1/measure returns for the paper's six kernels is
// bit-identical to what SweepMeasure computes in-process — the HTTP/JSON
// layer adds no rounding (encoding/json round-trips every float64
// exactly) and no reordering.
func TestMeasureBitIdentical(t *testing.T) {
	s := mustNew(t, Config{})
	reqBody, err := json.Marshal(MeasureRequest{Benchmarks: sweepScales})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, s.Handler(), "/v1/measure", string(reqBody))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	benches := make([]imtrans.Benchmark, len(sweepScales))
	for i, ref := range sweepScales {
		b, err := ref.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		benches[i] = b
	}
	want, err := imtrans.SweepMeasure(benches, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Measurements) != len(want) {
		t.Fatalf("got %d benchmark rows, want %d", len(resp.Measurements), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(resp.Measurements[i], want[i]) {
			t.Errorf("%s: measurements over HTTP differ from SweepMeasure", sweepScales[i].Name)
		}
		for j, done := range resp.Done[i] {
			if !done {
				t.Errorf("%s config %d: not done", sweepScales[i].Name, j)
			}
		}
	}
	if len(resp.Errors) != 0 {
		t.Errorf("unexpected sweep errors: %v", resp.Errors)
	}
}

// TestRepeatedRequestCacheHit proves the result cache short-circuits
// resimulation: the second identical request increments cache_hits_total,
// never re-enters a worker, and adds no capture-cache traffic.
func TestRepeatedRequestCacheHit(t *testing.T) {
	s := mustNew(t, Config{})
	executions := 0
	s.testHookWorkStarted = func(string) { executions++ }
	const body = `{"benchmark":{"name":"mmul","n":24}}`

	first := post(t, s.Handler(), "/v1/encode", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", first.Code, first.Body)
	}
	_, missesBefore := imtrans.CaptureCacheStats()

	second := post(t, s.Handler(), "/v1/encode", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", second.Code, second.Body)
	}
	if executions != 1 {
		t.Errorf("%d executions, want 1 (second request must come from the cache)", executions)
	}
	if got := s.Counters().Get("cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %d, want 1", got)
	}
	_, missesAfter := imtrans.CaptureCacheStats()
	if missesAfter != missesBefore {
		t.Errorf("capture-cache misses grew %d -> %d on a cached request", missesBefore, missesAfter)
	}
	if second.Body.String() != first.Body.String() {
		t.Errorf("cached body differs from original")
	}
}

// TestSingleFlightCoalesces holds the only worker inside the first
// request and fires identical concurrent ones: exactly one execution,
// everyone gets the same 200.
func TestSingleFlightCoalesces(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	executions := 0
	s.testHookWorkStarted = func(string) {
		mu.Lock()
		executions++
		mu.Unlock()
		close(entered)
		<-release
	}
	const body = `{"benchmark":{"name":"mmul","n":24}}`

	const followers = 3
	codes := make(chan int, followers+1)
	go func() {
		codes <- post(t, s.Handler(), "/v1/encode", body).Code
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(t, s.Handler(), "/v1/encode", body).Code
		}()
	}
	// Followers coalesce before the worker pool, so they are already
	// parked on the leader's flight; release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < followers+1; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if executions != 1 {
		t.Errorf("%d executions, want 1", executions)
	}
	if shared := s.Counters().Get("singleflight_shared_total"); shared != followers {
		t.Errorf("singleflight_shared_total = %d, want %d", shared, followers)
	}
}

// TestPanicBecomesTyped500 injects a panic into the supervised region and
// expects a JSON 500 with panic:true — the daemon survives.
func TestPanicBecomesTyped500(t *testing.T) {
	s := mustNew(t, Config{})
	s.testHookWorkStarted = func(string) { panic("injected") }
	w := post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var er struct {
		Error string `json:"error"`
		Panic bool   `json:"panic"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !er.Panic || !strings.Contains(er.Error, "injected") {
		t.Errorf("error body %+v, want panic:true mentioning the value", er)
	}
	if got := s.Counters().Get("panics_recovered_total"); got != 1 {
		t.Errorf("panics_recovered_total = %d, want 1", got)
	}
	// The panicked (non-2xx) result must not be cached: a retry executes
	// again and succeeds once the hook stops panicking.
	s.testHookWorkStarted = nil
	if w := post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`); w.Code != http.StatusOK {
		t.Errorf("retry after panic: status %d, want 200", w.Code)
	}
}

// TestBadRequests walks the malformed-input surface: every case is a 400
// with a JSON error body, never anything worse. An inline source with no
// instructions gets the same answer on every endpoint that takes one.
func TestBadRequests(t *testing.T) {
	s := mustNew(t, Config{})
	const comments = `"# only a comment\n"`
	cases := []struct {
		name, path, body, want string
	}{
		{"not json", "/v1/encode", `{`, ""},
		{"trailing data", "/v1/encode", `{"benchmark":{"name":"mmul"}} extra`, ""},
		{"unknown field", "/v1/encode", `{"benchmark":{"name":"mmul"},"bogus":1}`, ""},
		{"neither source nor benchmark", "/v1/encode", `{}`, ""},
		{"both source and benchmark", "/v1/encode", `{"source":"nop","benchmark":{"name":"mmul"}}`, ""},
		{"unknown benchmark", "/v1/encode", `{"benchmark":{"name":"nope"}}`, ""},
		{"bad block size", "/v1/encode", `{"benchmark":{"name":"mmul"},"config":{"block_size":99}}`, ""},
		{"oversize grid", "/v1/measure", oversizeGrid(), ""},
		{"bad retries", "/v1/measure", `{"benchmarks":[{"name":"mmul"}],"retries":99}`, ""},
		{"bad assembly", "/v1/encode", `{"source":"this is not mr32"}`, ""},
		{"empty source encode", "/v1/encode", `{"source":` + comments + `}`, "imtrans: empty program"},
		{"empty source measure", "/v1/measure", `{"source":` + comments + `}`, "imtrans: empty program"},
		{"empty source deploy", "/v1/deploy", `{"source":` + comments + `}`, "imtrans: empty program"},
		{"empty source static deploy", "/v1/deploy", `{"source":` + comments + `,"static":true}`, "imtrans: empty program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s.Handler(), tc.path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", w.Code, w.Body)
			}
			var er struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("error body %q is not a JSON error", w.Body)
			}
			if tc.want != "" && er.Error != tc.want {
				t.Errorf("error %q, want %q", er.Error, tc.want)
			}
		})
	}
	if w := get(t, s.Handler(), "/v1/encode"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/encode: status %d, want 405", w.Code)
	}
}

// TestRetriesFieldIgnored: every grid cell runs once, and "retries" is
// still accepted (and range-checked, see TestBadRequests) so that older
// clients keep working. A request carrying it must answer exactly what
// the same request without it answers.
func TestRetriesFieldIgnored(t *testing.T) {
	s := mustNew(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/measure", `{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2}],"configs":[{},{"block_size":4}]%s}`},
		{"/v1/compare", `{"benchmarks":[{"name":"mmul","n":24}],"schemes":[{"name":"paper"},{"name":"businvert"}]%s}`},
	} {
		plain := post(t, s.Handler(), tc.path, fmt.Sprintf(tc.body, ""))
		with := post(t, s.Handler(), tc.path, fmt.Sprintf(tc.body, `,"retries":3`))
		if plain.Code != http.StatusOK || with.Code != http.StatusOK {
			t.Fatalf("%s: status %d without retries, %d with (%s)", tc.path, plain.Code, with.Code, with.Body)
		}
		if !bytes.Equal(plain.Body.Bytes(), with.Body.Bytes()) {
			t.Errorf("%s: body with retries differs\nwithout: %s\nwith:    %s", tc.path, plain.Body, with.Body)
		}
	}
}

func oversizeGrid() string {
	var refs []BenchmarkRef
	for i := 0; i < 26; i++ {
		refs = append(refs, BenchmarkRef{Name: "mmul"})
	}
	cfgs := make([]ConfigRequest, 10)
	b, _ := json.Marshal(MeasureRequest{Benchmarks: refs, Configs: cfgs})
	return string(b)
}

// TestRateLimitSheds configures a one-token bucket and expects the second
// immediate request to be shed with 429 + Retry-After.
func TestRateLimitSheds(t *testing.T) {
	s := mustNew(t, Config{RateLimit: 0.001, RateBurst: 1})
	const body = `{"benchmark":{"name":"mmul","n":24}}`
	if w := post(t, s.Handler(), "/v1/encode", body); w.Code != http.StatusOK {
		t.Fatalf("first: status %d", w.Code)
	}
	w := post(t, s.Handler(), "/v1/encode", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Counters().Get(`shed_total{reason="rate_limited"}`); got != 1 {
		t.Errorf(`shed_total{reason="rate_limited"} = %d, want 1`, got)
	}
}

// TestQueueFullSheds saturates a one-worker, one-slot queue with distinct
// (uncoalesceable) requests and expects the overflow to get 429.
func TestQueueFullSheds(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookWorkStarted = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer close(release)

	go post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`)
	<-entered
	queued := make(chan int, 1)
	go func() {
		queued <- post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":25}}`).Code
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 })
	w := post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":26}}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", w.Code, w.Body)
	}
	if got := s.Counters().Get(`shed_total{reason="queue_full"}`); got != 1 {
		t.Errorf(`shed_total{reason="queue_full"} = %d, want 1`, got)
	}
	release <- struct{}{} // let the in-flight request finish
	release <- struct{}{} // and the queued one
	if c := <-queued; c != http.StatusOK {
		t.Errorf("queued request: status %d, want 200", c)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdown drives the full drain contract over a real
// listener: the in-flight request completes with 200, the queued one is
// released with 503, readiness flips, and the listener closes.
func TestGracefulShutdown(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookWorkStarted = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	httpPost := func(body string) (int, error) {
		resp, err := http.Post(base+"/v1/encode", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	inflight := make(chan int, 1)
	go func() {
		c, _ := httpPost(`{"benchmark":{"name":"mmul","n":24}}`)
		inflight <- c
	}()
	<-entered
	queued := make(chan int, 1)
	go func() {
		c, _ := httpPost(`{"benchmark":{"name":"mmul","n":25}}`)
		queued <- c
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// The queued request is released with 503 as soon as draining begins,
	// while the in-flight one is still running.
	if c := <-queued; c != http.StatusServiceUnavailable {
		t.Errorf("queued request during drain: status %d, want 503", c)
	}
	close(release)
	if c := <-inflight; c != http.StatusOK {
		t.Errorf("in-flight request across drain: status %d, want 200", c)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
}

// TestLoadgenAgainstDrainingServer runs the load generator straight
// through a graceful drain: every accepted request must complete (zero
// resets) — accepted-then-dropped is exactly what a graceful drain
// forbids.
func TestLoadgenAgainstDrainingServer(t *testing.T) {
	s := mustNew(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	go func() {
		time.Sleep(300 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	rep, err := RunLoadgen(context.Background(), LoadgenOptions{
		BaseURL:     "http://" + l.Addr().String(),
		RPS:         150,
		Duration:    time.Second,
		Concurrency: 16,
		Timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-serveErr
	if rep.Resets != 0 {
		t.Errorf("%d accepted requests were reset across the drain, want 0\n%s", rep.Resets, rep)
	}
	if rep.Accepted == 0 {
		t.Error("no requests accepted before the drain")
	}
	// Before the drain: 200s. After: 503s (shed) until the listener
	// closes, then refused dials count as not-accepted. Nothing else.
	for code := range rep.StatusCounts {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("unexpected status %d in %v", code, rep.StatusCounts)
		}
	}
}

// TestLoadgenHealthyServer is the CI smoke contract in miniature: a
// healthy daemon under its configured rate serves zero 5xx and the
// report carries real latency percentiles.
func TestLoadgenHealthyServer(t *testing.T) {
	s := mustNew(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	rep, err := RunLoadgen(context.Background(), LoadgenOptions{
		BaseURL:     "http://" + l.Addr().String(),
		RPS:         200,
		Duration:    time.Second,
		Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Responses5xx() != 0 {
		t.Errorf("%d 5xx responses from a healthy server\n%s", rep.Responses5xx(), rep)
	}
	if rep.Accepted == 0 || rep.Resets != 0 || rep.NotAccepted != 0 {
		t.Errorf("accepted=%d resets=%d not-accepted=%d, want all traffic accepted",
			rep.Accepted, rep.Resets, rep.NotAccepted)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
	}
	out := rep.String()
	for _, want := range []string{"latency p50", "latency p99", "responses_5xx 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReadyzAndHealthz checks the orchestration gates across a drain.
func TestReadyzAndHealthz(t *testing.T) {
	s := mustNew(t, Config{})
	if w := get(t, s.Handler(), "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz: %d, want 200", w.Code)
	}
	if w := get(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := get(t, s.Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", w.Code)
	}
	if w := get(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness is not readiness)", w.Code)
	}
	if w := post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("work while draining: %d, want 503", w.Code)
	}
}

// TestBenchmarksEndpoint lists the paper's six kernels plus the extras.
func TestBenchmarksEndpoint(t *testing.T) {
	s := mustNew(t, Config{})
	w := get(t, s.Handler(), "/v1/benchmarks")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var infos []BenchmarkInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	suites := map[string]int{}
	names := map[string]bool{}
	for _, bi := range infos {
		suites[bi.Suite]++
		names[bi.Name] = true
	}
	for _, want := range []string{"mmul", "sor", "ej", "fft", "tri", "lu"} {
		if !names[want] {
			t.Errorf("paper kernel %q missing from /v1/benchmarks", want)
		}
	}
	if suites["paper"] != 6 {
		t.Errorf("%d paper kernels, want 6", suites["paper"])
	}
	if suites["extra"] == 0 {
		t.Error("no extra kernels listed")
	}
}

// TestMetricsExposition scrapes /metrics after real traffic and checks
// the Prometheus text invariants the CI smoke step relies on: labelled
// request counters, one TYPE header per family, histogram sum/count.
func TestMetricsExposition(t *testing.T) {
	s := mustNew(t, Config{})
	post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`)
	post(t, s.Handler(), "/v1/encode", `{"benchmark":{"name":"mmul","n":24}}`)
	post(t, s.Handler(), "/v1/encode", `{bad`)
	w := get(t, s.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`imtransd_requests_total{endpoint="encode",code="200"} 2`,
		`imtransd_requests_total{endpoint="encode",code="400"} 1`,
		`imtransd_cache_hits_total 1`,
		`imtransd_request_duration_seconds_bucket{endpoint="encode",le="+Inf"}`,
		`imtransd_request_duration_seconds_count{endpoint="encode"} 3`,
		`imtransd_workers gauge`,
		`imtransd_ready 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	seenType := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if seenType[line] {
			t.Errorf("duplicate TYPE header %q", line)
		}
		seenType[line] = true
	}
}

// TestSourceMeasureMatchesReplay routes an inline program through
// /v1/measure and compares with ReplayMeasure directly.
func TestSourceMeasureMatchesReplay(t *testing.T) {
	const src = `
	li   $t0, 100
	li   $t1, 0
loop:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	addiu $t0, $t0, -1
	bgtz $t0, loop
	li $v0, 10
	syscall
`
	body, err := json.Marshal(MeasureRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{})
	w := post(t, s.Handler(), "/v1/measure", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	prog, err := imtrans.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := imtrans.ReplayMeasureCtx(context.Background(), prog, nil, imtrans.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Measurements, [][]imtrans.Measurement{want}) {
		t.Error("source measurement over HTTP differs from ReplayMeasure")
	}
}

// TestDeployArtifactRoundTrips asserts the shipped artifact is the exact
// CRC-sealed stream Deployment.Save writes, loadable and verifiable by
// the client exactly as the daemon promised.
func TestDeployArtifactRoundTrips(t *testing.T) {
	s := mustNew(t, Config{})
	w := post(t, s.Handler(), "/v1/deploy", `{"benchmark":{"name":"mmul","n":24}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp DeployResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Verified {
		t.Error("daemon did not verify the deployment")
	}
	d, err := imtrans.LoadDeployment(bytes.NewReader(resp.Artifact))
	if err != nil {
		t.Fatalf("client-side load of shipped artifact: %v", err)
	}
	if d.BlockSize != resp.BlockSize || d.TTEntries() != resp.TTEntries {
		t.Errorf("artifact geometry (k=%d, tt=%d) disagrees with response (k=%d, tt=%d)",
			d.BlockSize, d.TTEntries(), resp.BlockSize, resp.TTEntries)
	}
	b, err := imtrans.BenchmarkByName("mmul")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WithScale(24, 0).VerifyDeployment(d); err != nil {
		t.Errorf("client-side verification of shipped artifact: %v", err)
	}
}

// TestRequestTimeout gives the server a tiny deadline and a slow hook:
// the response must be a 504, not a hang.
func TestRequestTimeout(t *testing.T) {
	s := mustNew(t, Config{RequestTimeout: time.Nanosecond})
	w := post(t, s.Handler(), "/v1/measure", `{"benchmarks":[{"name":"mmul","n":24}]}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", w.Code, w.Body)
	}
	if hits := s.Counters().Get("cache_hits_total"); hits != 0 {
		t.Errorf("timeout result must not be cached (cache_hits_total=%d)", hits)
	}
	// And the error result is not cached: a healthy retry succeeds.
	s.cfg.RequestTimeout = 2 * time.Minute
	if w := post(t, s.Handler(), "/v1/measure", `{"benchmarks":[{"name":"mmul","n":24}]}`); w.Code != http.StatusOK {
		t.Errorf("retry with sane deadline: status %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestDeadlineBoundsSimulation: a request whose simulation outlasts its
// deadline — a source that never halts, or a kernel scale whose capture
// takes many times the deadline — answers 504 soon after the deadline on
// every endpoint that simulates, instead of holding a worker until the
// instruction cap.
func TestDeadlineBoundsSimulation(t *testing.T) {
	s := mustNew(t, Config{RequestTimeout: 300 * time.Millisecond})
	const loop = `"loop: addiu $t0,$t0,1\nj loop\nnop\n"`
	const slow = `{"name":"mmul","n":250}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/encode", `{"source":` + loop + `}`},
		{"/v1/measure", `{"source":` + loop + `}`},
		{"/v1/deploy", `{"source":` + loop + `}`},
		{"/v1/deploy", `{"source":` + loop + `,"static":true}`},
		{"/v1/encode", `{"benchmark":` + slow + `}`},
		{"/v1/measure", `{"benchmarks":[` + slow + `]}`},
		{"/v1/compare", `{"benchmarks":[` + slow + `],"schemes":[{"name":"businvert"}]}`},
		{"/v1/deploy", `{"benchmark":` + slow + `}`},
		{"/v1/deploy", `{"benchmark":` + slow + `,"static":true}`},
	} {
		start := time.Now()
		w := post(t, s.Handler(), tc.path, tc.body)
		if took := time.Since(start); w.Code != http.StatusGatewayTimeout || took > 1500*time.Millisecond {
			t.Errorf("%s %s: status %d after %v, want 504 within 1.5s (%s)", tc.path, tc.body, w.Code, took, w.Body)
		}
	}
}

func ExampleServer() {
	s, _ := New(Config{Workers: 2})
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	s.Handler().ServeHTTP(w, req)
	fmt.Print(w.Body.String())
	// Output: ok
}

// TestParseRejectsScaleOutsideDomain holds every request decoder to the
// kernels' scale domains: sizes inside [0, 2^20] that would exhaust
// memory, panic in setup or spin to the instruction cap are a parse
// error, and the scales the daemon is driven at still parse. ej at
// n = 10500 with one sweep fits the instruction cap but not the data cap.
func TestParseRejectsScaleOutsideDomain(t *testing.T) {
	bad := []string{
		`{"name":"mmul","n":1048576}`,
		`{"name":"fft","n":3}`,
		`{"name":"fft","n":1000}`,
		`{"name":"sor","n":2}`,
		`{"name":"ej","n":1}`,
		`{"name":"ej","iters":-1}`,
		`{"name":"tri","n":1}`,
		`{"name":"conv2d","n":2}`,
		`{"name":"iir","iters":-1}`,
		`{"name":"ej","n":10500,"iters":1}`,
	}
	for _, ref := range bad {
		if _, err := ParseEncodeRequest([]byte(`{"benchmark":` + ref + `}`)); err == nil {
			t.Errorf("encode %s parsed", ref)
		}
		if _, err := ParseDeployRequest([]byte(`{"benchmark":` + ref + `}`)); err == nil {
			t.Errorf("deploy %s parsed", ref)
		}
		if _, err := ParseMeasureRequest([]byte(`{"benchmarks":[` + ref + `]}`)); err == nil {
			t.Errorf("measure %s parsed", ref)
		}
		if _, err := ParseCompareRequest([]byte(`{"benchmarks":[` + ref + `],"schemes":[{"name":"paper"}]}`)); err == nil {
			t.Errorf("compare %s parsed", ref)
		}
	}
	if _, err := ParseEncodeRequest([]byte(`{"benchmark":{"name":"fft","n":3}}`)); err == nil ||
		!strings.Contains(err.Error(), `benchmark "fft": n 3 is not a power of two`) {
		t.Errorf("fft n=3: err = %v", err)
	}
	body, err := json.Marshal(MeasureRequest{Benchmarks: sweepScales})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMeasureRequest(body); err != nil {
		t.Errorf("reduced-scale grid rejected: %v", err)
	}
}

// TestScaleOutsideDomainIs400 drives the daemon with scales no kernel can
// run: each answers 400 at parse or submit time, well inside a 3-second
// request deadline, and never reaches a capture.
func TestScaleOutsideDomainIs400(t *testing.T) {
	s := jobsServer(t, Config{RequestTimeout: 3 * time.Second})
	cases := []struct{ path, body string }{
		{"/v1/measure", `{"benchmarks":[{"name":"fft","n":3}]}`},
		{"/v1/encode", `{"benchmark":{"name":"mmul","n":1048576}}`},
		{"/v1/compare", `{"benchmarks":[{"name":"fft","n":3}],"schemes":[{"name":"businvert"}]}`},
		{"/v1/jobs", `{"benchmarks":[{"name":"fft","n":3}]}`},
		{"/v1/measure", `{"benchmarks":[{"name":"ej","n":10500,"iters":1}]}`},
		{"/v1/jobs", `{"benchmarks":[{"name":"ej","n":10500,"iters":1}]}`},
	}
	for _, tc := range cases {
		start := time.Now()
		w := post(t, s.Handler(), tc.path, tc.body)
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s %s took %v", tc.path, tc.body, el)
		}
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, w.Code, w.Body)
		}
	}
}
