package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"imtrans"
	"imtrans/internal/jobs"
	"imtrans/internal/stats"
)

// The request decoders below are the daemon's entire parsing surface:
// every body is size-capped before it reaches them, decoded strictly
// (unknown fields rejected, trailing garbage rejected) and validated
// against resource bounds, so arbitrary input yields a 400 — never a
// panic, never an unbounded simulation. They are pure functions of the
// body bytes, which keeps them directly fuzzable.

// maxSourceBytes bounds an inline MR32 assembly source.
const maxSourceBytes = 1 << 20

// The benchmark, config and scheme wire types are the job engine's, so a
// request body and a job spec validate and resolve them the same way.
type (
	// BenchmarkRef names a built-in kernel, optionally rescaled. Zero
	// n/iters keep the kernel's defaults (the paper's problem sizes).
	BenchmarkRef = jobs.BenchmarkRef
	// ConfigRequest is the wire form of imtrans.Config.
	ConfigRequest = jobs.ConfigRef
	// SchemeRequest is the wire form of one scheme column of a
	// comparison: a registered encoding-scheme name plus the knobs that
	// scheme reads.
	SchemeRequest = jobs.SchemeRef
)

// EncodeRequest is the body of POST /v1/encode: exactly one of an inline
// MR32 source or a built-in benchmark reference, plus the encoding
// configuration.
type EncodeRequest struct {
	Source    string        `json:"source,omitempty"`
	Benchmark *BenchmarkRef `json:"benchmark,omitempty"`
	Config    ConfigRequest `json:"config,omitempty"`
}

func (r *EncodeRequest) validate() error {
	if (r.Source == "") == (r.Benchmark == nil) {
		return fmt.Errorf("exactly one of source or benchmark is required")
	}
	if len(r.Source) > maxSourceBytes {
		return fmt.Errorf("source exceeds %d bytes", maxSourceBytes)
	}
	if r.Benchmark != nil {
		if err := r.Benchmark.Validate(); err != nil {
			return err
		}
	}
	return r.Config.Validate()
}

// EncodeResponse carries the planned encoding: the static report
// (covered blocks, table contents, overhead, encoded image).
type EncodeResponse struct {
	Config string                  `json:"config"`
	Report *imtrans.EncodingReport `json:"report"`
}

// MeasureRequest is the body of POST /v1/measure: a configuration grid
// over either one inline source program or a set of built-in benchmarks.
type MeasureRequest struct {
	Source     string          `json:"source,omitempty"`
	Benchmarks []BenchmarkRef  `json:"benchmarks,omitempty"`
	Configs    []ConfigRequest `json:"configs,omitempty"`
	// Retries is accepted and range-checked for compatibility with older
	// clients, and ignored: every grid cell runs once.
	Retries int `json:"retries,omitempty"`
}

func (r *MeasureRequest) validate() error {
	if (r.Source == "") == (len(r.Benchmarks) == 0) {
		return fmt.Errorf("exactly one of source or benchmarks is required")
	}
	if len(r.Source) > maxSourceBytes {
		return fmt.Errorf("source exceeds %d bytes", maxSourceBytes)
	}
	return r.spec().Validate()
}

// spec is the job spec equal to the request's grid. An inline source is
// the grid's one row, named as the response names it; BenchmarkRef
// checks only the scale of a name that is not a kernel.
func (r *MeasureRequest) spec() *jobs.Spec {
	sp := &jobs.Spec{Benchmarks: r.Benchmarks, Configs: r.Configs, Retries: r.Retries}
	if r.Source != "" {
		sp.Benchmarks = []BenchmarkRef{{Name: sourceRow}}
	}
	return sp
}

// sourceRow names the one row of an inline-source measure grid.
const sourceRow = "program"

// MeasureResponse is the measured grid, indexed [benchmark][config].
// Values are bit-identical to what SweepMeasure / ReplayMeasure return
// in-process: the daemon adds no rounding of its own, and encoding/json
// round-trips every float64 exactly.
type MeasureResponse struct {
	Benchmarks   []string                `json:"benchmarks"`
	Configs      []string                `json:"configs"`
	Measurements [][]imtrans.Measurement `json:"measurements"`
	Done         [][]bool                `json:"done"`
	Errors       []string                `json:"errors,omitempty"`
	Counters     *stats.Counters         `json:"counters,omitempty"`
}

// CompareRequest is the body of POST /v1/compare: a cross-scheme
// comparison grid over built-in benchmarks — every scheme measures the
// same captured instruction stream, and the response ranks the schemes
// per workload.
type CompareRequest struct {
	Benchmarks []BenchmarkRef  `json:"benchmarks"`
	Schemes    []SchemeRequest `json:"schemes"`
	// Retries is accepted and range-checked for compatibility with older
	// clients, and ignored: every grid cell runs once.
	Retries int `json:"retries,omitempty"`
}

func (r *CompareRequest) validate() error { return r.spec().Validate() }

// spec is the compare job spec equal to the request's grid.
func (r *CompareRequest) spec() *jobs.Spec {
	return &jobs.Spec{Kind: jobs.KindCompare, Benchmarks: r.Benchmarks, Schemes: r.Schemes, Retries: r.Retries}
}

// CompareResponse is the compared grid, indexed [benchmark][scheme].
// Rankings[bench] lists the completed scheme indices of that benchmark by
// ascending transition count.
type CompareResponse struct {
	Benchmarks []string                      `json:"benchmarks"`
	Schemes    []string                      `json:"schemes"`
	Results    [][]imtrans.SchemeMeasurement `json:"results"`
	Done       [][]bool                      `json:"done"`
	Rankings   [][]int                       `json:"rankings"`
	Errors     []string                      `json:"errors,omitempty"`
	Counters   *stats.Counters               `json:"counters,omitempty"`
}

// DeployRequest is the body of POST /v1/deploy: build (and by default
// end-to-end verify) a versioned deployment artifact for a program or
// benchmark. Static selects the profile-free firmware scenario.
type DeployRequest struct {
	Source     string        `json:"source,omitempty"`
	Benchmark  *BenchmarkRef `json:"benchmark,omitempty"`
	Config     ConfigRequest `json:"config,omitempty"`
	Static     bool          `json:"static,omitempty"`
	SkipVerify bool          `json:"skip_verify,omitempty"`
}

func (r *DeployRequest) validate() error {
	if (r.Source == "") == (r.Benchmark == nil) {
		return fmt.Errorf("exactly one of source or benchmark is required")
	}
	if len(r.Source) > maxSourceBytes {
		return fmt.Errorf("source exceeds %d bytes", maxSourceBytes)
	}
	if r.Benchmark != nil {
		if err := r.Benchmark.Validate(); err != nil {
			return err
		}
	}
	return r.Config.Validate()
}

// DeployResponse carries the versioned artifact (the exact bytes
// Deployment.Save writes, CRC-sealed and re-validated by the daemon
// before shipping) plus its headline geometry.
type DeployResponse struct {
	Artifact      json.RawMessage `json:"artifact"`
	Checksum      uint32          `json:"checksum"`
	BlockSize     int             `json:"block_size"`
	BusWidth      int             `json:"bus_width"`
	TTEntries     int             `json:"tt_entries"`
	CoveredBlocks int             `json:"covered_blocks"`
	ImageWords    int             `json:"image_words"`
	Verified      bool            `json:"verified"`
}

// BenchmarkInfo describes one built-in kernel for GET /v1/benchmarks.
type BenchmarkInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	N           int    `json:"n"`
	Iters       int    `json:"iters"`
	Suite       string `json:"suite"` // "paper" or "extra"
}

// errorResponse is the uniform error body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	Panic bool   `json:"panic,omitempty"`
}

// decodeStrict unmarshals one JSON value from data into v, rejecting
// unknown fields and trailing content.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON body")
	}
	return nil
}

// ParseEncodeRequest decodes and validates a POST /v1/encode body.
func ParseEncodeRequest(data []byte) (*EncodeRequest, error) {
	var r EncodeRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ParseMeasureRequest decodes and validates a POST /v1/measure body.
func ParseMeasureRequest(data []byte) (*MeasureRequest, error) {
	var r MeasureRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ParseCompareRequest decodes and validates a POST /v1/compare body.
// Name resolution against the registries (jobs.Spec.Check) happens in
// the handler, so the parser stays a pure function of the bytes (and
// directly fuzzable).
func ParseCompareRequest(data []byte) (*CompareRequest, error) {
	var r CompareRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ParseDeployRequest decodes and validates a POST /v1/deploy body.
func ParseDeployRequest(data []byte) (*DeployRequest, error) {
	var r DeployRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
