package server

import (
	"errors"
	"net/http"
	"os"
	"time"

	"imtrans/internal/jobs"
)

// The async job API: long sweeps submitted as durable jobs that survive
// daemon restarts (graceful or SIGKILL). POST /v1/jobs accepts a spec and
// returns its content-addressed ID; GET /v1/jobs/{id} reports state and
// progress; GET /v1/jobs/{id}/result serves the stored result bytes
// verbatim; DELETE /v1/jobs/{id} cancels cooperatively; GET /v1/jobs
// lists. These are control-plane handlers: submission only registers the
// job (the engine's own bounded supervisor executes it), so none of them
// go through the request worker pool.

// JobSubmitResponse is the body of POST /v1/jobs.
type JobSubmitResponse struct {
	// Created is true when this submission scheduled an execution (a new
	// job, or the re-queue of a failed/cancelled one); false when the
	// spec deduplicated onto an existing queued/running/done job.
	Created bool        `json:"created"`
	Job     jobs.Record `json:"job"`
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []jobs.Record `json:"jobs"`
}

// jobErrorResponse reports a non-servable result fetch: the job's state
// plus its typed terminal error, so a client can distinguish "not yet"
// from "failed, and here is why".
type jobErrorResponse struct {
	Error string          `json:"error"`
	State jobs.State      `json:"state,omitempty"`
	Job   *jobs.ErrorInfo `json:"job_error,omitempty"`
}

// handleJobSubmit accepts a job spec. 202 on a scheduled execution, 200
// on a dedup, 400 on a bad spec, 503 while draining (a submission the
// daemon could not owe durably across its own exit window is refused).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.Draining() {
		s.counters.Add(`shed_total{reason="draining"}`, 1)
		s.finish(w, "jobs", start, errResult(http.StatusServiceUnavailable, "server is draining"))
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.finish(w, "jobs", start, errResult(http.StatusBadRequest, err.Error()))
		return
	}
	sp, err := jobs.ParseSpec(body)
	if err != nil {
		s.finish(w, "jobs", start, errResult(http.StatusBadRequest, err.Error()))
		return
	}
	rec, created, err := s.jobs.Submit(sp)
	if err != nil {
		var se *jobs.SpecError
		if errors.As(err, &se) {
			s.finish(w, "jobs", start, errResult(http.StatusBadRequest, err.Error()))
			return
		}
		s.finish(w, "jobs", start, errResult(http.StatusInternalServerError, err.Error()))
		return
	}
	res := okResult(JobSubmitResponse{Created: created, Job: rec})
	if created {
		res.status = http.StatusAccepted
	}
	s.finish(w, "jobs", start, res)
}

// handleJobList lists every job's record, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	list := s.jobs.List()
	if list == nil {
		list = []jobs.Record{}
	}
	s.finish(w, "jobs", start, okResult(JobListResponse{Jobs: list}))
}

// handleJobGet reports one job's state and progress.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.finish(w, "jobs", start, errResult(http.StatusNotFound, "unknown job"))
		return
	}
	s.finish(w, "jobs", start, okResult(rec))
}

// handleJobResult serves a done job's stored result bytes verbatim. A
// queued/running job gets 409 with its record state; a failed, cancelled
// or corrupt one gets 409 carrying the typed terminal error; a result
// file that fails its CRC gets 500 — never silently served — and leaves
// the job corrupt, so later fetches get that 409.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	payload, rec, err := s.jobs.ResultBytes(r.PathValue("id"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.finish(w, "jobs", start, errResult(http.StatusNotFound, "unknown job"))
	case errors.Is(err, jobs.ErrNotFinished):
		s.finish(w, "jobs", start, &cachedResult{
			status: http.StatusConflict,
			body:   mustJSON(jobErrorResponse{Error: "job has not finished", State: rec.State}),
		})
	case errors.Is(err, jobs.ErrResultDamaged):
		s.finish(w, "jobs", start, errResult(http.StatusInternalServerError, err.Error()))
	case err != nil:
		s.finish(w, "jobs", start, &cachedResult{
			status: http.StatusConflict,
			body:   mustJSON(jobErrorResponse{Error: err.Error(), State: rec.State, Job: rec.Error}),
		})
	default:
		s.finish(w, "jobs", start, &cachedResult{status: http.StatusOK, body: append(payload, '\n')})
	}
}

// handleJobCancel cancels cooperatively; idempotent — cancelling a
// terminal (or already cancelled) job returns its record unchanged.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.finish(w, "jobs", start, errResult(http.StatusNotFound, "unknown job"))
		return
	}
	s.finish(w, "jobs", start, okResult(rec))
}
