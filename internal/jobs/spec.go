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
// a panic, never a half-trusted resume. Spec is also the daemon's one
// grid request: its synchronous grid endpoints validate, resolve and run
// the equal spec.
package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"imtrans"
	"imtrans/internal/scheme"
	"imtrans/internal/stats"
	"imtrans/internal/workloads"
)

// Limits on what a single grid may ask for. The daemon validates its
// synchronous /v1/measure and /v1/compare bodies as the equal spec, so
// both paths share these bounds.
const (
	// MaxGridCells bounds benchmarks × configs (or schemes) per grid.
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
// unknown name passes here and fails Resolve (Spec.Check), so validation
// stays a pure function of the bytes.
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

// Validate checks the configuration's knobs as the paper scheme's: its
// ConfigSpace is the one declaration of their ranges.
func (c ConfigRef) Validate() error {
	return imtrans.SchemeSpec{Name: "paper", Config: c.Config()}.Validate()
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

// Validate checks a registered scheme's knobs against the ranges its
// ConfigSpace lists. An unknown name, or a knob the scheme does not read
// (knob bleed), passes here and fails Spec.Check, so a submit refuses it
// as a *SpecError.
func (r SchemeRef) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("scheme: name is required")
	}
	if !imtrans.SchemeByName(r.Name) {
		return nil
	}
	if err := r.SchemeSpec().Validate(); !errors.Is(err, scheme.ErrUnlisted) {
		return err
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

// Spec is the daemon's one grid request: a supervised measurement sweep
// over built-in benchmarks × configurations or, with kind "compare", a
// cross-scheme comparison over benchmarks × scheme specs. A job runs
// one durably; POST /v1/measure and POST /v1/compare build the equal
// spec and run it synchronously. The spec is a job's identity: its
// canonical serialisation hashes to the job ID, so byte-equivalent
// submissions deduplicate onto one job.
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

// Validate checks the spec against its bounds as a pure function of its
// fields: kind, grid size, scales, knob ranges, duplicate scheme specs,
// retries and deadline. Names are resolved, and knob bleed refused, by
// Check.
func (s *Spec) Validate() error {
	switch s.Kind {
	case "", KindSweep:
		if len(s.Schemes) > 0 {
			return fmt.Errorf("schemes are only valid for kind %q", KindCompare)
		}
	case KindCompare:
		if len(s.Schemes) == 0 {
			return fmt.Errorf("at least one scheme is required")
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

// SweepConfigs returns the sweep's configuration axis, a single default
// when none are given — the same zero-config behaviour as the facade.
func (s *Spec) SweepConfigs() []imtrans.Config {
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
// Name resolution (Check) happens at submit, not here, keeping the
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
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SpecError marks a spec rejected for a name the registries do not know
// (a client error).
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// Check resolves the spec's kernel and scheme names against the
// registries, so an unknown name is a client error before any work
// starts. A failure is a *SpecError.
func (s *Spec) Check() error {
	_, err := s.resolve()
	return err
}

// resolve maps the benchmark refs to rescaled kernels and checks every
// scheme spec against the registry.
func (s *Spec) resolve() ([]imtrans.Benchmark, error) {
	benches := make([]imtrans.Benchmark, len(s.Benchmarks))
	for i, ref := range s.Benchmarks {
		b, err := ref.Resolve()
		if err != nil {
			return nil, &SpecError{Err: err}
		}
		benches[i] = b
	}
	for i, sc := range s.Schemes {
		if err := sc.SchemeSpec().Validate(); err != nil {
			return nil, &SpecError{Err: fmt.Errorf("schemes[%d]: %w", i, err)}
		}
	}
	return benches, nil
}

// RunStats is what one grid run reports beside its result.
type RunStats struct {
	Restored int             // cells restored from the checkpoint journal
	Counters *stats.Counters // the grid counters; nil when no grid ran
}

// Run executes the spec's grid with opts — the supervised sweep, or the
// cross-scheme comparison for kind "compare" — and shapes it into a
// Result. It is the one grid executor behind a job attempt and the
// daemon's synchronous /v1/measure and /v1/compare.
func (s *Spec) Run(ctx context.Context, opts imtrans.SweepOptions) (*Result, RunStats, error) {
	benches, err := s.resolve()
	if err != nil {
		return nil, RunStats{}, err
	}
	out := &Result{Benchmarks: make([]string, len(benches))}
	for i, b := range benches {
		out.Benchmarks[i] = b.Name
	}
	var rs RunStats
	if s.Kind == KindCompare {
		specs := make([]imtrans.SchemeSpec, len(s.Schemes))
		for i, r := range s.Schemes {
			specs[i] = r.SchemeSpec()
		}
		var res *imtrans.CompareResult
		if res, err = imtrans.CompareMeasureCtx(ctx, benches, specs, opts); res != nil {
			rs = RunStats{Restored: res.Restored, Counters: &res.Counters}
			out.Schemes, out.Compare, out.Rankings, out.Done = res.Schemes, res.Results, res.Rankings, res.Done
			for i := range res.Errors {
				out.Errors = append(out.Errors, res.Errors[i].Error())
			}
		}
	} else {
		cfgs := s.SweepConfigs()
		var res *imtrans.SweepResult
		if res, err = imtrans.SweepMeasureCtx(ctx, benches, cfgs, opts); res != nil {
			rs = RunStats{Restored: res.Restored, Counters: &res.Counters}
			out.Configs = make([]string, len(cfgs))
			for i, c := range cfgs {
				out.Configs[i] = c.String()
			}
			out.Measurements, out.Done = res.Measurements, res.Done
			for i := range res.Errors {
				out.Errors = append(out.Errors, res.Errors[i].Error())
			}
		}
	}
	if err != nil {
		return nil, rs, err
	}
	return out, rs, nil
}
