// Package jobs is the daemon's durable async job engine: a sweep
// submitted as a job survives any interruption — client timeout, graceful
// drain, SIGKILL — and owes nothing. Each job persists three artifacts
// under a content-addressed on-disk store (the job ID is a truncated
// SHA-256 of the canonical spec): the spec itself, a CRC-guarded state
// record, and the sweep's checkpoint journal. On boot the engine rescans
// the store, re-verifies every artifact, and resumes incomplete jobs
// bit-identically from their last checkpointed cell; execution runs under
// a per-job supervisor with bounded concurrency, a per-job deadline, and
// the per-cell panic isolation the sweep layer already has
// (internal/runsafe). Corrupted store files mark the job corrupt — never
// a panic, never a half-trusted resume.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"imtrans"
	"imtrans/internal/workloads"
)

// Limits on what a single job may ask for, mirroring the synchronous
// /v1/measure bounds so the async path cannot smuggle in a bigger grid.
const (
	// MaxGridCells bounds benchmarks × configs per job.
	MaxGridCells = 256
	// MaxRetries bounds the ignored retries field, so specs an older
	// build accepted still parse and out-of-range ones are still refused.
	MaxRetries = 10
	// MaxDeadlineSeconds bounds the per-job deadline a spec may request.
	MaxDeadlineSeconds = 24 * 60 * 60
	// maxScale bounds benchmark problem sizes and iteration counts.
	maxScale = 1 << 20
)

// The wire types below are shared with the daemon's synchronous
// endpoints, so a benchmark, config or scheme validates and resolves the
// same way in a request body and in a job spec.

// BenchmarkRef names a built-in kernel, optionally rescaled; zero n/iters
// keep the kernel's defaults.
type BenchmarkRef struct {
	Name  string `json:"name"`
	N     int    `json:"n,omitempty"`
	Iters int    `json:"iters,omitempty"`
}

// Validate checks the scale bounds and, for a known kernel, the kernel's
// domain: its smallest size, fft's power-of-two rule, at least one
// iteration, and a run that fits the simulator's instruction cap. An
// unknown name passes here and fails Resolve, so validation stays a pure
// function of the bytes.
func (r BenchmarkRef) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("benchmark: name is required")
	}
	if r.N < 0 || r.N > maxScale {
		return fmt.Errorf("benchmark %q: n %d out of range [0, %d]", r.Name, r.N, maxScale)
	}
	if r.Iters < 0 || r.Iters > maxScale {
		return fmt.Errorf("benchmark %q: iters %d out of range [0, %d]", r.Name, r.Iters, maxScale)
	}
	if w, err := workloads.ByName(r.Name); err == nil {
		if err := w.Validate(workloads.Params{N: r.N, Iters: r.Iters}); err != nil {
			return fmt.Errorf("benchmark %q: %w", r.Name, err)
		}
	}
	return nil
}

// Resolve looks the kernel up by name and applies the scale.
func (r BenchmarkRef) Resolve() (imtrans.Benchmark, error) {
	b, err := imtrans.BenchmarkByName(r.Name)
	if err != nil {
		return imtrans.Benchmark{}, err
	}
	return b.WithScale(r.N, r.Iters), nil
}

// ConfigRef is the wire form of one encoding configuration.
type ConfigRef struct {
	BlockSize    int  `json:"block_size,omitempty"`
	TTEntries    int  `json:"tt_entries,omitempty"`
	BBITEntries  int  `json:"bbit_entries,omitempty"`
	AllFunctions bool `json:"all_functions,omitempty"`
	Exact        bool `json:"exact,omitempty"`
	Knapsack     bool `json:"knapsack,omitempty"`
	BusWidth     int  `json:"bus_width,omitempty"`
}

// Config converts to the root facade's configuration type.
func (c ConfigRef) Config() imtrans.Config {
	return imtrans.Config{
		BlockSize:    c.BlockSize,
		TTEntries:    c.TTEntries,
		BBITEntries:  c.BBITEntries,
		AllFunctions: c.AllFunctions,
		Exact:        c.Exact,
		Knapsack:     c.Knapsack,
		BusWidth:     c.BusWidth,
	}
}

// Validate checks the configuration's knobs against their ranges.
func (c ConfigRef) Validate() error {
	if c.BlockSize != 0 && (c.BlockSize < 2 || c.BlockSize > 16) {
		return fmt.Errorf("config: block_size %d out of range [2, 16]", c.BlockSize)
	}
	if c.TTEntries < 0 || c.TTEntries > 4096 {
		return fmt.Errorf("config: tt_entries %d out of range [0, 4096]", c.TTEntries)
	}
	if c.BBITEntries < 0 || c.BBITEntries > 4096 {
		return fmt.Errorf("config: bbit_entries %d out of range [0, 4096]", c.BBITEntries)
	}
	if c.BusWidth < 0 || c.BusWidth > 32 {
		return fmt.Errorf("config: bus_width %d out of range [0, 32]", c.BusWidth)
	}
	return nil
}

// SchemeRef is the wire form of one encoding-scheme column of a compare
// job: a registered scheme name plus the knobs it reads.
type SchemeRef struct {
	Name       string    `json:"name"`
	Config     ConfigRef `json:"config,omitempty"`
	Entries    int       `json:"entries,omitempty"`
	ExtraLines int       `json:"extra_lines,omitempty"`
}

// SchemeSpec converts to the root facade's scheme-spec type.
func (r SchemeRef) SchemeSpec() imtrans.SchemeSpec {
	return imtrans.SchemeSpec{
		Name:       r.Name,
		Config:     r.Config.Config(),
		Entries:    r.Entries,
		ExtraLines: r.ExtraLines,
	}
}

// Validate checks the scheme's knobs against their ranges; the scheme
// name is resolved against the registry later, by SchemeSpec().Validate.
func (r SchemeRef) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("scheme: name is required")
	}
	if err := r.Config.Validate(); err != nil {
		return fmt.Errorf("scheme %q: %w", r.Name, err)
	}
	if r.Entries < 0 || r.Entries > 1<<16 {
		return fmt.Errorf("scheme %q: entries %d out of range [0, %d]", r.Name, r.Entries, 1<<16)
	}
	if r.ExtraLines < 0 || r.ExtraLines > 16 {
		return fmt.Errorf("scheme %q: extra_lines %d out of range [0, 16]", r.Name, r.ExtraLines)
	}
	return nil
}

// Job kinds. The zero kind is a plain measurement sweep, so every spec
// written before compare jobs existed keeps its canonical bytes — and
// therefore its job ID — unchanged.
const (
	// KindSweep is the benchmarks × configs measurement sweep.
	KindSweep = "sweep"
	// KindCompare is the benchmarks × scheme-specs comparison sweep.
	KindCompare = "compare"
)

// Spec is what a job runs: a supervised measurement sweep over built-in
// benchmarks × configurations — the same grid POST /v1/measure evaluates
// synchronously, made durable — or, with kind "compare", a cross-scheme
// comparison over benchmarks × scheme specs. The spec is the job's
// identity: its canonical serialisation hashes to the job ID, so
// byte-equivalent submissions deduplicate onto one job.
type Spec struct {
	// Kind selects the execution path: "" or "sweep" runs the paper
	// config sweep; "compare" runs the cross-scheme comparison.
	Kind string `json:"kind,omitempty"`

	Benchmarks []BenchmarkRef `json:"benchmarks"`
	Configs    []ConfigRef    `json:"configs,omitempty"`

	// Schemes is the scheme axis of a compare job; required for kind
	// "compare", forbidden otherwise.
	Schemes []SchemeRef `json:"schemes,omitempty"`

	// Retries is accepted, range-checked and hashed into the job ID, and
	// otherwise ignored: every grid cell runs once. It stays so that specs
	// older builds stored keep their IDs and still load.
	Retries int `json:"retries,omitempty"`

	// DeadlineSeconds bounds the job's total execution wall clock
	// (resumed time counts per attempt, not cumulatively); 0 uses the
	// engine default.
	DeadlineSeconds int `json:"deadline_seconds,omitempty"`
}

func (s *Spec) validate() error {
	switch s.Kind {
	case "", KindSweep:
		if len(s.Schemes) > 0 {
			return fmt.Errorf("schemes are only valid for kind %q", KindCompare)
		}
	case KindCompare:
		if len(s.Schemes) == 0 {
			return fmt.Errorf("kind %q requires at least one scheme", KindCompare)
		}
		if len(s.Configs) > 0 {
			return fmt.Errorf("kind %q takes per-scheme configs, not a configs list", KindCompare)
		}
	default:
		return fmt.Errorf("unknown kind %q", s.Kind)
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("at least one benchmark is required")
	}
	_, cols := s.Grid()
	if len(s.Benchmarks)*cols > MaxGridCells {
		return fmt.Errorf("grid of %d cells exceeds the %d-cell limit", len(s.Benchmarks)*cols, MaxGridCells)
	}
	for _, b := range s.Benchmarks {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	for i, c := range s.Configs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("configs[%d]: %w", i, err)
		}
	}
	seen := make(map[string]bool, len(s.Schemes))
	for i, sc := range s.Schemes {
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("schemes[%d]: %w", i, err)
		}
		key := string(mustMarshal(sc))
		if seen[key] {
			return fmt.Errorf("schemes[%d]: duplicate scheme spec %q", i, sc.Name)
		}
		seen[key] = true
	}
	if s.Retries < 0 || s.Retries > MaxRetries {
		return fmt.Errorf("retries %d out of range [0, %d]", s.Retries, MaxRetries)
	}
	if s.DeadlineSeconds < 0 || s.DeadlineSeconds > MaxDeadlineSeconds {
		return fmt.Errorf("deadline_seconds %d out of range [0, %d]", s.DeadlineSeconds, MaxDeadlineSeconds)
	}
	return nil
}

// Grid reports the spec's cell grid dimensions: benchmarks × configs for
// sweeps, benchmarks × schemes for comparisons.
func (s *Spec) Grid() (rows, cols int) {
	rows = len(s.Benchmarks)
	if s.Kind == KindCompare {
		return rows, len(s.Schemes)
	}
	cols = len(s.Configs)
	if cols == 0 {
		cols = 1
	}
	return rows, cols
}

// mustMarshal serialises a marshal-safe wire struct for canonical
// comparison.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("jobs: marshalling spec fragment: %v", err))
	}
	return b
}

// schemeSpecs returns the compare job's scheme axis in the facade's type.
func (s *Spec) schemeSpecs() []imtrans.SchemeSpec {
	out := make([]imtrans.SchemeSpec, len(s.Schemes))
	for i, r := range s.Schemes {
		out[i] = r.SchemeSpec()
	}
	return out
}

// configs returns the configuration axis, a single default when none are
// given — the same zero-config behaviour as the facade.
func (s *Spec) configs() []imtrans.Config {
	if len(s.Configs) == 0 {
		return []imtrans.Config{{}}
	}
	out := make([]imtrans.Config, len(s.Configs))
	for i, c := range s.Configs {
		out[i] = c.Config()
	}
	return out
}

// Canonical returns the spec's canonical bytes: the compact JSON of the
// validated struct, independent of the submitter's whitespace, field
// order, or numeric formatting. The job ID is a hash of exactly these
// bytes, so they are also the store's integrity check for the spec file.
func (s *Spec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is marshal-safe by construction.
		panic(fmt.Sprintf("jobs: marshalling spec: %v", err))
	}
	return b
}

// ID derives the job's content address: the first 16 hex digits of the
// SHA-256 of the canonical spec.
func (s *Spec) ID() string {
	h := sha256.Sum256(s.Canonical())
	return fmt.Sprintf("%x", h[:8])
}

// ParseSpec strictly decodes and validates a job spec: unknown fields,
// trailing data, and out-of-bounds grids are errors — never a panic.
// Benchmark-name resolution happens at submit, not here, keeping the
// parser a pure function of the bytes (and directly fuzzable).
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the JSON body")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
