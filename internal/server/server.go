// Package server is the encoding-as-a-service layer over the imtrans
// facades: an HTTP/JSON daemon that plans encodings (POST /v1/encode),
// measures configuration grids (POST /v1/measure), packages versioned
// deployment artifacts (POST /v1/deploy) and lists the built-in kernels
// (GET /v1/benchmarks), production-shaped around the subsystems the
// library already has. Every work request runs in a bounded worker pool
// under a per-request deadline with cooperative cancellation threaded
// into the simulator, encoder and replay loops; identical in-flight
// requests are coalesced and finished ones served from an LRU result
// cache layered over the process-wide capture cache; panics are
// supervised into typed 500s by runsafe; a token bucket and a bounded
// admission queue shed overload as 429s; and SIGTERM drains gracefully —
// in-flight requests complete, queued ones get 503s, the listener
// closes. GET /metrics exposes it all in Prometheus text format,
// GET /healthz and /readyz gate orchestration.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"imtrans/internal/cas"
	"imtrans/internal/jobs"
	"imtrans/internal/runsafe"
	"imtrans/internal/stats"
)

// Config parameterises the daemon. The zero value serves with sensible
// production defaults: GOMAXPROCS workers, a 64-deep admission queue, a
// 120 s request deadline, a 256-entry result cache and no rate limit.
type Config struct {
	// Workers bounds concurrent encode/measure/deploy executions;
	// <= 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds requests waiting for a worker before the daemon
	// sheds load with 429; <= 0 means 64.
	QueueDepth int

	// RequestTimeout is the per-request deadline threaded into the
	// simulator, the encoder's per-line loop and the replay fetch loop;
	// <= 0 means 120 s.
	RequestTimeout time.Duration

	// CacheEntries bounds the LRU result cache; <= 0 means 256.
	CacheEntries int

	// RateLimit admits this many requests/second through a token bucket
	// (RateBurst capacity, defaulting to the rate); <= 0 disables.
	RateLimit float64
	RateBurst int

	// JobsDir enables the durable async job engine, rooted at this store
	// directory; empty disables the /v1/jobs API.
	JobsDir string

	// JobsMaxConcurrent bounds simultaneously executing jobs; <= 0 means 1.
	JobsMaxConcurrent int

	// JobsParallelism bounds each job's sweep fan-out; <= 0 means
	// GOMAXPROCS.
	JobsParallelism int

	// JobDeadline bounds a job attempt's wall clock when its spec doesn't;
	// <= 0 means 1 h.
	JobDeadline time.Duration

	// JobsFsync makes job records and checkpoint journals power-fail
	// durable (fsync before and after every rename).
	JobsFsync bool

	// StoreDir enables the persistent content-addressed store of response
	// bodies: a successful encode, measure, compare or deploy response
	// lands there under its request key, so a restarted daemon serves it
	// instead of re-deriving it. Empty disables the store.
	StoreDir string

	// StoreMaxBytes bounds the store's blob payload bytes (LRU eviction
	// past it); <= 0 means unbounded.
	StoreMaxBytes int64

	// StoreFsync makes store writes power-fail durable.
	StoreFsync bool

	// StoreScrubInterval spaces the periodic background integrity scrubs
	// (one also runs at boot); <= 0 means 10 min.
	StoreScrubInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.StoreScrubInterval <= 0 {
		c.StoreScrubInterval = 10 * time.Minute
	}
	return c
}

// Server is one daemon instance. Construct with New, serve with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	http     *http.Server
	counters *stats.Counters
	hist     map[string]*histogram
	cache    *resultCache
	limiter  *tokenBucket
	jobs     *jobs.Engine // nil unless Config.JobsDir is set
	store    *cas.Store   // nil unless Config.StoreDir is set

	// gridParallelism bounds each synchronous grid request's fan-out:
	// GOMAXPROCS divided across the request workers, so concurrent grids
	// don't oversubscribe the host.
	gridParallelism int

	sem      chan struct{} // worker slots
	waiting  atomic.Int64  // requests queued for a slot
	draining chan struct{} // closed when Shutdown begins
	ready    atomic.Bool
	started  time.Time

	// testHookWorkStarted, when non-nil, runs inside the worker slot and
	// the supervised region, before the endpoint work — tests use it to
	// hold a slot open, to count real executions (cache hits never reach
	// it), and to inject panics.
	testHookWorkStarted func(endpoint string)
}

// maxBodyBytes caps any request body read by the daemon.
const maxBodyBytes = 4 << 20

// New builds a ready-to-serve daemon. With Config.JobsDir set it also
// opens the durable job store, registers the /v1/jobs API, and launches
// recovery of any jobs an earlier process left incomplete.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		counters: &stats.Counters{},
		hist:     map[string]*histogram{},
		cache:    newResultCache(cfg.CacheEntries),
		limiter:  newTokenBucket(cfg.RateLimit, cfg.RateBurst),
		sem:      make(chan struct{}, cfg.Workers),
		draining: make(chan struct{}),
		started:  time.Now(),

		gridParallelism: max(runtime.GOMAXPROCS(0)/cfg.Workers, 1),
	}
	for _, ep := range []string{"encode", "measure", "compare", "deploy", "benchmarks", "schemes", "jobs"} {
		s.hist[ep] = newHistogram()
	}
	s.mux.HandleFunc("POST /v1/encode", s.work("encode", s.handleEncode))
	s.mux.HandleFunc("POST /v1/measure", s.work("measure", s.handleMeasure))
	s.mux.HandleFunc("POST /v1/compare", s.work("compare", s.handleCompare))
	s.mux.HandleFunc("POST /v1/deploy", s.work("deploy", s.handleDeploy))
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.StoreDir != "" {
		store, err := cas.Open(cfg.StoreDir, cas.Options{
			Fsync:    cfg.StoreFsync,
			MaxBytes: cfg.StoreMaxBytes,
			Counters: s.counters,
		})
		if err != nil {
			return nil, err
		}
		// The result LRU reads through and writes behind the store's
		// name→digest index, so every body served from disk is CRC- and
		// digest-verified first.
		s.store, s.cache.store = store, store
		go s.scrubLoop()
	}
	if cfg.JobsDir != "" {
		eng, err := jobs.Open(jobs.Config{
			Dir:             cfg.JobsDir,
			MaxConcurrent:   cfg.JobsMaxConcurrent,
			Parallelism:     cfg.JobsParallelism,
			DefaultDeadline: cfg.JobDeadline,
			Fsync:           cfg.JobsFsync,
			Counters:        s.counters,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = eng
		s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
		eng.Resume()
	}
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.ready.Store(true)
	return s, nil
}

// scrubLoop runs the boot-time integrity scrub and then one per
// StoreScrubInterval until the daemon drains; each scrub verifies every
// blob and index entry and quarantines what fails.
func (s *Server) scrubLoop() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-s.draining; cancel() }()
	s.store.Scrub(ctx)
	tick := time.NewTicker(s.cfg.StoreScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.draining:
			return
		case <-tick.C:
			s.store.Scrub(ctx)
		}
	}
}

// Jobs exposes the daemon's job engine (nil when jobs are disabled).
func (s *Server) Jobs() *jobs.Engine { return s.jobs }

// Store exposes the daemon's persistent response store (nil when
// disabled).
func (s *Server) Store() *cas.Store { return s.store }

// Counters exposes the daemon's telemetry set (shared, concurrency-safe).
func (s *Server) Counters() *stats.Counters { return s.counters }

// Handler returns the daemon's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the daemon: readiness goes false, queued requests are
// released with 503, in-flight requests run to completion (bounded by
// ctx), the listener closes, and the job engine stops — running jobs'
// contexts are cancelled and their on-disk state stays `running`, the
// marker the next boot's recovery resumes from. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	err := s.http.Shutdown(ctx)
	if s.jobs != nil {
		if jerr := s.jobs.Stop(ctx); jerr != nil && err == nil {
			err = jerr
		}
	}
	s.cache.flushTier() // let straggling write-behind puts land
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// statusClientClosed is the nginx-convention status recorded (never sent)
// when the client goes away before the response.
const statusClientClosed = 499

// work wraps an endpoint's handler with the serving pipeline: rate
// limiting, strict body decode (delegated to the handler via body bytes),
// result-cache/single-flight lookup, worker-pool admission with
// load-shedding, per-request deadline, runsafe panic supervision, and
// request accounting.
func (s *Server) work(endpoint string, handle func(ctx context.Context, body []byte) (*cachedResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		res := s.serveWork(r, endpoint, handle)
		s.finish(w, endpoint, start, res)
	}
}

// finish writes the result and records telemetry.
func (s *Server) finish(w http.ResponseWriter, endpoint string, start time.Time, res *cachedResult) {
	if h := s.hist[endpoint]; h != nil {
		h.observe(time.Since(start).Seconds())
	}
	s.counters.Add(fmt.Sprintf("requests_total{endpoint=%q,code=\"%d\"}", endpoint, res.status), 1)
	if res.status == statusClientClosed {
		return // nobody is listening
	}
	ct := res.contentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if res.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// serveWork runs the shared pipeline and returns the response to write.
func (s *Server) serveWork(r *http.Request, endpoint string, handle func(ctx context.Context, body []byte) (*cachedResult, error)) *cachedResult {
	if s.Draining() {
		s.counters.Add(`shed_total{reason="draining"}`, 1)
		return errResult(http.StatusServiceUnavailable, "server is draining")
	}
	if !s.limiter.allow() {
		s.counters.Add(`shed_total{reason="rate_limited"}`, 1)
		return errResult(http.StatusTooManyRequests, "rate limit exceeded")
	}
	body, err := readBody(r)
	if err != nil {
		return errResult(http.StatusBadRequest, err.Error())
	}
	key := cacheKey(endpoint, body)
	res, outcome, err := s.cache.do(r.Context(), key, func() (*cachedResult, error) {
		return s.execute(r.Context(), endpoint, body, handle), nil
	})
	switch outcome {
	case cacheHit:
		s.counters.Add("cache_hits_total", 1)
	case cacheShared:
		s.counters.Add("singleflight_shared_total", 1)
	case cacheTierHit:
		s.counters.Add("cache_tier_hits_total", 1)
	default:
		s.counters.Add("cache_misses_total", 1)
	}
	if err != nil {
		// Only a coalesced follower whose context ended can get here.
		return errResult(statusFromCtxErr(err), err.Error())
	}
	return res
}

// execute admits the request into the worker pool and runs the endpoint
// work under supervision and the per-request deadline. It always returns
// a response (never nil): failures become typed JSON errors.
func (s *Server) execute(ctx context.Context, endpoint string, body []byte, handle func(ctx context.Context, body []byte) (*cachedResult, error)) *cachedResult {
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.counters.Add(`shed_total{reason="queue_full"}`, 1)
		return errResult(http.StatusTooManyRequests, "admission queue full")
	}
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-s.draining:
		s.waiting.Add(-1)
		s.counters.Add(`shed_total{reason="draining"}`, 1)
		return errResult(http.StatusServiceUnavailable, "server is draining")
	case <-ctx.Done():
		s.waiting.Add(-1)
		return errResult(statusFromCtxErr(ctx.Err()), ctx.Err().Error())
	}
	defer func() { <-s.sem }()

	wctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	var res *cachedResult
	err := runsafe.Run(func() error {
		if s.testHookWorkStarted != nil {
			s.testHookWorkStarted(endpoint)
		}
		var herr error
		res, herr = handle(wctx, body)
		return herr
	})
	var pe *runsafe.PanicError
	switch {
	case errors.As(err, &pe):
		s.counters.Add("panics_recovered_total", 1)
		return &cachedResult{
			status: http.StatusInternalServerError,
			body:   mustJSON(errorResponse{Error: fmt.Sprintf("internal panic: %v", pe.Value), Panic: true}),
		}
	case err != nil:
		// Handlers return *cachedResult for client/semantic errors; a raw
		// error here is a pipeline defect surfaced as a plain 500.
		return errResult(http.StatusInternalServerError, err.Error())
	}
	if res == nil {
		return errResult(http.StatusInternalServerError, "handler returned no result")
	}
	return res
}

// readBody reads a bounded request body.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	return body, nil
}

// cacheKey derives the canonical request identity: the endpoint, the
// encoding-scheme axis the request evaluates, and a content hash of the
// body — so the persistent store's result tier reads
// resp/<endpoint>:<scheme>:<sha> and entries for different scheme sets
// can never alias even across key-derivation changes. Two byte-identical
// requests to one endpoint share a key; the handlers' strict decoding
// keeps accidental collisions (ignored fields, trailing data) out of the
// space.
func cacheKey(endpoint string, body []byte) string {
	h := sha256.Sum256(body)
	return fmt.Sprintf("%s:%s:%x", endpoint, schemeLabel(endpoint, body), h)
}

// schemeLabel names the scheme axis of a request for its cache key. The
// paper pipeline endpoints always evaluate the paper scheme; compare
// requests carry an explicit scheme list, folded to the sorted, deduped
// names. The probe is deliberately lenient — a body the strict parser
// will later reject still needs a deterministic key.
func schemeLabel(endpoint string, body []byte) string {
	if endpoint != "compare" {
		return "paper"
	}
	var probe struct {
		Schemes []struct {
			Name string `json:"name"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || len(probe.Schemes) == 0 {
		return "none"
	}
	seen := make(map[string]bool, len(probe.Schemes))
	names := make([]string, 0, len(probe.Schemes))
	for _, sc := range probe.Schemes {
		if sc.Name != "" && !seen[sc.Name] {
			seen[sc.Name] = true
			names = append(names, sc.Name)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// statusFromCtxErr maps a context error to the response status: 504 for
// a deadline, 499 (recorded, unsent) for a client disconnect.
func statusFromCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return statusClientClosed
}

// errResult builds a JSON error response.
func errResult(status int, msg string) *cachedResult {
	return &cachedResult{status: status, body: mustJSON(errorResponse{Error: msg})}
}

// okResult builds a 200 JSON response.
func okResult(v any) *cachedResult {
	return &cachedResult{status: http.StatusOK, body: mustJSON(v)}
}

// mustJSON marshals a response type; the types are all marshal-safe by
// construction, so a failure is a programming error worth a panic (which
// the supervision layer would still convert to a 500).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshalling response: %v", err))
	}
	return append(b, '\n')
}
