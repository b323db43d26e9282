package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"imtrans"
	"imtrans/internal/jobs"
	"imtrans/internal/objfile"
	"imtrans/internal/stats"
)

// handleEncode plans an encoding for a source program or benchmark:
// profile (a benchmark through the capture cache, an inline source with
// one bare run), encode, statically verify, report.
func (s *Server) handleEncode(ctx context.Context, body []byte) (*cachedResult, error) {
	req, err := ParseEncodeRequest(body)
	if err != nil {
		return errResult(http.StatusBadRequest, err.Error()), nil
	}
	cfg := req.Config.Config()
	var rep *imtrans.EncodingReport
	if req.Benchmark != nil {
		b, err := req.Benchmark.Resolve()
		if err != nil {
			return errResult(http.StatusBadRequest, err.Error()), nil
		}
		rep, err = b.EncodeCtx(ctx, cfg)
		if err != nil {
			return workErr(ctx, err), nil
		}
	} else {
		p, bad := assembleSource(req.Source)
		if bad != nil {
			return bad, nil
		}
		profile, err := imtrans.ProfileProgram(ctx, p, nil)
		if err != nil {
			return workErr(ctx, err), nil
		}
		rep, err = imtrans.EncodeProgram(p, profile, cfg)
		if err != nil {
			return workErr(ctx, err), nil
		}
	}
	return okResult(EncodeResponse{Config: cfg.String(), Report: rep}), nil
}

// handleMeasure evaluates a configuration grid: benchmarks go through
// the equal job spec's supervised sweep (per-cell fault isolation), an
// inline source through the replay engine. Both paths poll ctx inside
// the profiling run, the encoder's per-line loop and the replay fetch
// loop.
func (s *Server) handleMeasure(ctx context.Context, body []byte) (*cachedResult, error) {
	req, err := ParseMeasureRequest(body)
	if err != nil {
		return errResult(http.StatusBadRequest, err.Error()), nil
	}
	if req.Source == "" {
		return s.serveGrid(ctx, req.spec(), func(r *jobs.Result, c *stats.Counters) any {
			return MeasureResponse{Benchmarks: r.Benchmarks, Configs: r.Configs, Measurements: r.Measurements, Done: r.Done, Errors: r.Errors, Counters: c}
		}), nil
	}

	p, bad := assembleSource(req.Source)
	if bad != nil {
		return bad, nil
	}
	cfgs := req.spec().SweepConfigs()
	ms, err := imtrans.ReplayMeasureCtx(ctx, p, nil, cfgs...)
	if err != nil {
		return workErr(ctx, err), nil
	}
	resp := MeasureResponse{
		Benchmarks:   []string{sourceRow},
		Measurements: [][]imtrans.Measurement{ms},
		Done:         [][]bool{make([]bool, len(ms))},
	}
	for _, c := range cfgs {
		resp.Configs = append(resp.Configs, c.String())
	}
	for i := range ms {
		resp.Done[0][i] = true
	}
	return okResult(resp), nil
}

// handleCompare evaluates a cross-scheme comparison grid through the
// equal compare job spec: one supervised capture per benchmark, every
// scheme measuring the shared instruction stream, per-workload rankings
// in the response.
func (s *Server) handleCompare(ctx context.Context, body []byte) (*cachedResult, error) {
	req, err := ParseCompareRequest(body)
	if err != nil {
		return errResult(http.StatusBadRequest, err.Error()), nil
	}
	return s.serveGrid(ctx, req.spec(), func(r *jobs.Result, c *stats.Counters) any {
		return CompareResponse{Benchmarks: r.Benchmarks, Schemes: r.Schemes, Results: r.Compare, Done: r.Done, Rankings: r.Rankings, Errors: r.Errors, Counters: c}
	}), nil
}

// serveGrid runs a grid request as its job spec — Check, then Run with the
// request's worker bound — folds the run's grid counters into /metrics
// and shapes the response with view. Unknown names answer 400.
func (s *Server) serveGrid(ctx context.Context, sp *jobs.Spec, view func(*jobs.Result, *stats.Counters) any) *cachedResult {
	if err := sp.Check(); err != nil {
		return errResult(http.StatusBadRequest, err.Error())
	}
	res, rs, err := sp.Run(ctx, imtrans.SweepOptions{Parallelism: s.gridParallelism})
	if err != nil {
		return workErr(ctx, err)
	}
	for _, name := range rs.Counters.Names() {
		s.counters.Add(name, rs.Counters.Get(name))
	}
	return okResult(view(res, rs.Counters))
}

// handleSchemes lists the registered encoding schemes with their
// configuration spaces, the discovery endpoint for /v1/compare clients.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.finish(w, "schemes", start, okResult(imtrans.Schemes()))
}

// handleDeploy builds a versioned deployment artifact, end-to-end
// verifies it (unless skipped), and ships the exact CRC-sealed bytes
// Deployment.Save writes — re-loaded through the strict objfile
// validator first, so a corrupt artifact can never leave the daemon.
func (s *Server) handleDeploy(ctx context.Context, body []byte) (*cachedResult, error) {
	req, err := ParseDeployRequest(body)
	if err != nil {
		return errResult(http.StatusBadRequest, err.Error()), nil
	}
	cfg := req.Config.Config()

	var d *imtrans.Deployment
	verified := false
	if req.Benchmark != nil {
		b, err := req.Benchmark.Resolve()
		if err != nil {
			return errResult(http.StatusBadRequest, err.Error()), nil
		}
		if req.Static {
			p, err := b.Program()
			if err != nil {
				return errResult(http.StatusBadRequest, err.Error()), nil
			}
			d, err = imtrans.BuildDeploymentStatic(p, cfg)
			if err != nil {
				return workErr(ctx, err), nil
			}
		} else {
			d, err = b.DeploymentCtx(ctx, cfg)
			if err != nil {
				return workErr(ctx, err), nil
			}
		}
		if !req.SkipVerify {
			if err := b.VerifyDeploymentCtx(ctx, d); err != nil {
				return verifyErr(ctx, err), nil
			}
			verified = true
		}
	} else {
		p, bad := assembleSource(req.Source)
		if bad != nil {
			return bad, nil
		}
		if req.Static {
			d, err = imtrans.BuildDeploymentStatic(p, cfg)
		} else {
			profile, perr := imtrans.ProfileProgram(ctx, p, nil)
			if perr != nil {
				return workErr(ctx, perr), nil
			}
			d, err = imtrans.BuildDeployment(p, profile, cfg)
		}
		if err != nil {
			return workErr(ctx, err), nil
		}
		if !req.SkipVerify {
			if err := d.VerifyCtx(ctx, p, nil); err != nil {
				return verifyErr(ctx, err), nil
			}
			verified = true
		}
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, fmt.Errorf("serialising deployment: %w", err)
	}
	// CRC verification: round-trip the artifact through the strict loader
	// before shipping it, exactly what the receiving end will do.
	f, err := objfile.LoadDeployment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("artifact failed validation: %w", err)
	}
	return okResult(DeployResponse{
		Artifact:      json.RawMessage(buf.Bytes()),
		Checksum:      f.Checksum,
		BlockSize:     d.BlockSize,
		BusWidth:      d.BusWidth,
		TTEntries:     d.TTEntries(),
		CoveredBlocks: d.CoveredBlocks(),
		ImageWords:    len(d.Encoded),
		Verified:      verified,
	}), nil
}

// assembleSource assembles a request's inline source. A source that
// does not assemble, or assembles to no instructions, answers 400.
func assembleSource(src string) (*imtrans.Program, *cachedResult) {
	p, err := imtrans.Assemble(src)
	if err != nil {
		return nil, errResult(http.StatusBadRequest, err.Error())
	}
	if p.Instructions() == 0 {
		return nil, errResult(http.StatusBadRequest, "imtrans: empty program")
	}
	return p, nil
}

// handleBenchmarks lists the built-in kernels: the paper's six plus the
// generality extras, with their default (paper-scale) parameters.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var out []BenchmarkInfo
	for _, b := range imtrans.Benchmarks() {
		out = append(out, BenchmarkInfo{Name: b.Name, Description: b.Description, N: b.N, Iters: b.Iters, Suite: "paper"})
	}
	for _, b := range imtrans.ExtraBenchmarks() {
		out = append(out, BenchmarkInfo{Name: b.Name, Description: b.Description, N: b.N, Iters: b.Iters, Suite: "extra"})
	}
	s.finish(w, "benchmarks", start, okResult(out))
}

// handleHealthz reports process liveness: if this handler runs, the
// process is up — draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz gates traffic: 200 while serving, 503 once draining (or
// before Serve), so orchestrators stop routing before the listener goes.
// While job-store recovery is still resuming interrupted work the daemon
// serves but reports itself degraded — still 200 (it can take traffic),
// with the debt spelled out in the body and the metrics gauge.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() || s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.jobs != nil && s.jobs.Recovering() {
		fmt.Fprintln(w, "ready (degraded: job recovery in flight)")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the daemon's telemetry in Prometheus text
// format: request/cache/shed/panic counters, per-endpoint latency
// histograms, worker-pool and cache gauges, and the process-wide
// capture-cache counters underneath the result cache.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	renderCounters(w, s.counters)
	fmt.Fprintf(w, "# TYPE %srequest_duration_seconds histogram\n", metricsNamespace)
	for _, ep := range []string{"encode", "measure", "compare", "deploy", "benchmarks", "schemes", "jobs"} {
		s.hist[ep].render(w, metricsNamespace+"request_duration_seconds", fmt.Sprintf("endpoint=%q", ep))
	}
	if s.jobs != nil {
		counts := s.jobs.StateCounts()
		fmt.Fprintf(w, "# TYPE %sjobs gauge\n", metricsNamespace)
		for _, st := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled, jobs.StateCorrupt} {
			fmt.Fprintf(w, "%sjobs{state=%q} %d\n", metricsNamespace, st, counts[st])
		}
		recovering := 0
		if s.jobs.Recovering() {
			recovering = 1
		}
		fmt.Fprintf(w, "# TYPE %sjobs_recovering gauge\n%sjobs_recovering %d\n", metricsNamespace, metricsNamespace, recovering)
	}
	if s.store != nil {
		blobs, bytes := s.store.Stats()
		fmt.Fprintf(w, "# TYPE %scas_blobs gauge\n%scas_blobs %d\n", metricsNamespace, metricsNamespace, blobs)
		fmt.Fprintf(w, "# TYPE %scas_bytes gauge\n%scas_bytes %d\n", metricsNamespace, metricsNamespace, bytes)
	}
	hits, misses := imtrans.CaptureCacheStats()
	fmt.Fprintf(w, "# TYPE %scapture_cache_hits_total counter\n%scapture_cache_hits_total %d\n", metricsNamespace, metricsNamespace, hits)
	fmt.Fprintf(w, "# TYPE %scapture_cache_misses_total counter\n%scapture_cache_misses_total %d\n", metricsNamespace, metricsNamespace, misses)
	fmt.Fprintf(w, "# TYPE %sresult_cache_entries gauge\n%sresult_cache_entries %d\n", metricsNamespace, metricsNamespace, s.cache.size())
	fmt.Fprintf(w, "# TYPE %squeue_waiting gauge\n%squeue_waiting %d\n", metricsNamespace, metricsNamespace, s.waiting.Load())
	fmt.Fprintf(w, "# TYPE %sworkers gauge\n%sworkers %d\n", metricsNamespace, metricsNamespace, s.cfg.Workers)
	fmt.Fprintf(w, "# TYPE %sworkers_busy gauge\n%sworkers_busy %d\n", metricsNamespace, metricsNamespace, len(s.sem))
	fmt.Fprintf(w, "# TYPE %suptime_seconds gauge\n%suptime_seconds %g\n", metricsNamespace, metricsNamespace, time.Since(s.started).Seconds())
	up := 1
	if s.Draining() {
		up = 0
	}
	fmt.Fprintf(w, "# TYPE %sready gauge\n%sready %d\n", metricsNamespace, metricsNamespace, up)
}

// verifyErr maps a failed deployment verification: a context error as
// workErr does, anything else → 500, the daemon built a broken artifact.
func verifyErr(ctx context.Context, err error) *cachedResult {
	if res := workErr(ctx, err); res.status != http.StatusUnprocessableEntity {
		return res
	}
	return errResult(http.StatusInternalServerError, err.Error())
}

// workErr maps a work-stage failure to its response: context deadline →
// 504, client disconnect → 499 (recorded, unsent), anything else → 422,
// the encoding/measurement itself rejected the input.
func workErr(ctx context.Context, err error) *cachedResult {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errResult(http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		return errResult(statusClientClosed, err.Error())
	}
	return errResult(http.StatusUnprocessableEntity, err.Error())
}
