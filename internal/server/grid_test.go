package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"imtrans/internal/jobs"
)

// TestGridEndpointsMatchJobs runs the same grids synchronously and as
// jobs: benchmarks × configs through POST /v1/measure and a sweep job,
// benchmarks × schemes through POST /v1/compare and a compare job. Each
// pair must serve byte-equal grids, done flags, rankings and errors.
func TestGridEndpointsMatchJobs(t *testing.T) {
	s := jobsServer(t, Config{})
	const benches = `{"benchmarks":[{"name":"mmul","n":24},{"name":"sor","n":32,"iters":2}],`
	for _, tc := range []struct {
		path, grid, kind string
		fields           [][2]string // response field, job result field
	}{
		{"/v1/measure", `"configs":[{},{"block_size":4}]}`, ``,
			[][2]string{{"benchmarks", "benchmarks"}, {"configs", "configs"}, {"measurements", "measurements"}, {"done", "done"}, {"errors", "errors"}}},
		{"/v1/compare", `"schemes":[{"name":"paper","config":{"block_size":5}},{"name":"businvert"},{"name":"codebook","entries":64}]}`, `"kind":"compare",`,
			[][2]string{{"benchmarks", "benchmarks"}, {"schemes", "schemes"}, {"results", "compare"}, {"done", "done"}, {"rankings", "rankings"}, {"errors", "errors"}}},
	} {
		w := post(t, s.Handler(), tc.path, benches+tc.grid)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, w.Code, w.Body)
		}
		var served map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &served); err != nil {
			t.Fatal(err)
		}
		var done [][]bool
		if err := json.Unmarshal(served["done"], &done); err != nil || len(done) != 2 {
			t.Fatalf("%s: done = %s", tc.path, served["done"])
		}
		for _, row := range done {
			for _, d := range row {
				if !d {
					t.Fatalf("%s: done = %s, want every cell done", tc.path, served["done"])
				}
			}
		}

		w = post(t, s.Handler(), "/v1/jobs", "{"+tc.kind+benches[1:]+tc.grid)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s job: submit status %d: %s", tc.path, w.Code, w.Body)
		}
		var sub JobSubmitResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, s, sub.Job.ID, jobs.StateDone)
		w = get(t, s.Handler(), "/v1/jobs/"+sub.Job.ID+"/result")
		if w.Code != http.StatusOK {
			t.Fatalf("%s job: result status %d: %s", tc.path, w.Code, w.Body)
		}
		var stored map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &stored); err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.fields {
			if served[f[0]] == nil && f[0] != "errors" {
				t.Errorf("%s: response has no %q", tc.path, f[0])
			}
			if !bytes.Equal(served[f[0]], stored[f[1]]) {
				t.Errorf("%s %q differs from the job's %q:\nserved: %.200s\njob:    %.200s", tc.path, f[0], f[1], served[f[0]], stored[f[1]])
			}
		}
	}
}

// TestMeasureFoldsGridCounters: a /v1/measure run adds its grid counters
// to /metrics, as /v1/compare does, and a cached repeat adds nothing.
func TestMeasureFoldsGridCounters(t *testing.T) {
	s := mustNew(t, Config{})
	const body = `{"benchmarks":[{"name":"mmul","n":24}],"configs":[{},{"block_size":4}]}`
	for i := 0; i < 2; i++ {
		if w := post(t, s.Handler(), "/v1/measure", body); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		metrics := get(t, s.Handler(), "/metrics").Body.String()
		if v := metricValue(metrics, "sweep_completed"); v != 2 {
			t.Fatalf("request %d: sweep_completed = %d in /metrics, want 2", i+1, v)
		}
	}
	if n := s.Counters().Get("cache_hits_total"); n != 1 {
		t.Fatalf("cache_hits_total = %d, want 1 (the repeat)", n)
	}
}
