package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"imtrans"
)

// Magic and Version identify the sealed job-store artifacts (record and
// result files). The spec file needs no envelope: its integrity check is
// the content address itself.
const (
	Magic   = "imtrans-job"
	Version = 1
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done
//	                 → failed     (deadline, isolated cell errors, panic, store)
//	queued|running → cancelled    (cooperative DELETE)
//	running ~(crash)~> queued     (restart recovery re-queues and resumes)
//	any ~(store corruption)~> corrupt
//
// done, failed, cancelled and corrupt are terminal; a resubmission of the
// identical spec re-queues failed and cancelled jobs (keeping their
// journal, so the re-run resumes) and wipes corrupt ones clean.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateCorrupt   State = "corrupt"
)

// Terminal reports whether a state ends the job's execution.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateCorrupt:
		return true
	}
	return false
}

// ErrorInfo is the typed terminal error payload of a failed job.
type ErrorInfo struct {
	// Kind classifies the failure: "deadline" (the per-job deadline
	// fired), "cancelled" (DELETE), "panic" (the run returned a
	// *runsafe.PanicError; a panicking grid cell is a "sweep" failure),
	// "measure" (any other run error, including a mismatched journal or
	// an unresolvable benchmark), "sweep" (isolated cell failures; the
	// partial result is kept), "store" (the result could not be written)
	// or "corrupt" (a store file failed verification).
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// Record is a job's durable state: everything GET /v1/jobs/{id} reports.
// It is rewritten (CRC-sealed, temp-file + rename) on every state
// transition and throttled progress update; the checkpoint journal — not
// the record — is the source of truth for which cells are done, so a
// stale CellsDone after a crash only under-reports progress.
type Record struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	SpecSHA256 string `json:"spec_sha256"`
	Created    string `json:"created"` // RFC3339 UTC
	Updated    string `json:"updated"`

	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	Restored   int `json:"restored"` // cells restored from the journal across resumes
	Retries    int `json:"retries"`  // always 0; kept so records older builds wrote still decode
	Attempts   int `json:"attempts"` // times execution started
	Resumes    int `json:"resumes"`  // times recovered after an interrupted run

	Error *ErrorInfo `json:"error,omitempty"`
}

// Result is a finished job's payload, bit-identical to what the
// synchronous sweep returns for the same grid: the daemon serves the
// stored bytes verbatim, so an interrupted-and-resumed job's result is
// byte-for-byte the result of an uninterrupted run. Sweep jobs fill the
// configs/measurements axes; compare jobs fill schemes/compare/rankings.
type Result struct {
	Benchmarks   []string                `json:"benchmarks"`
	Configs      []string                `json:"configs,omitempty"`
	Measurements [][]imtrans.Measurement `json:"measurements,omitempty"`

	Schemes  []string                      `json:"schemes,omitempty"`
	Compare  [][]imtrans.SchemeMeasurement `json:"compare,omitempty"`
	Rankings [][]int                       `json:"rankings,omitempty"`

	Done   [][]bool `json:"done"`
	Errors []string `json:"errors,omitempty"`
}

// envelope seals a JSON payload with the objfile discipline: a
// magic/version header and a CRC-32 (IEEE) over the compact payload
// bytes, verified before the payload is trusted.
type envelope struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Payload  json.RawMessage `json:"payload"`
	Checksum uint32          `json:"crc32"`
}

// seal wraps v in a checksummed envelope ready to write.
func seal(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	env := envelope{
		Magic:    Magic,
		Version:  Version,
		Payload:  payload,
		Checksum: crc32.ChecksumIEEE(payload),
	}
	data, err := json.MarshalIndent(&env, "", " ")
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return append(data, '\n'), nil
}

// unseal validates an envelope and strictly decodes its payload into v.
// Malformed or corrupted input returns an error, never a panic.
func unseal(data []byte, v any) error {
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("jobs: trailing data after the envelope")
	}
	if env.Magic != Magic {
		return fmt.Errorf("jobs: not a job artifact (magic %q)", env.Magic)
	}
	if env.Version != Version {
		return fmt.Errorf("jobs: unsupported version %d", env.Version)
	}
	// The checksum is defined over the compact payload form, stable no
	// matter how the envelope serialisation indents the nested bytes.
	var buf bytes.Buffer
	if err := json.Compact(&buf, env.Payload); err != nil {
		return fmt.Errorf("jobs: malformed payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != env.Checksum {
		return fmt.Errorf("jobs: checksum mismatch (artifact %#08x, computed %#08x): corrupted store file", env.Checksum, got)
	}
	pdec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(v); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// writeFileAtomic lands data in a temp file in path's directory and
// renames it over the target; with durable set it fsyncs the temp file
// before the rename and the directory after, so the write survives power
// loss, not just a crash.
func writeFileAtomic(path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".job-*")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: %w", err)
	}
	if durable {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Per-job store layout under <dir>/<id>/.
const (
	specFile    = "spec.json"
	recordFile  = "record.json"
	resultFile  = "result.json"
	journalFile = "journal.ckpt"
)

// readRecord loads and verifies a sealed record file.
func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := unseal(data, &rec); err != nil {
		return nil, err
	}
	if !validState(rec.State) {
		return nil, fmt.Errorf("jobs: record has unknown state %q", rec.State)
	}
	return &rec, nil
}

func validState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateCorrupt:
		return true
	}
	return false
}

// readResultPayload reads a sealed result file and returns the verified
// compact payload bytes — exactly what was sealed at completion, so every
// fetch serves an identical body.
func readResultPayload(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var raw json.RawMessage
	if err := unseal(data, &raw); err != nil {
		return nil, err
	}
	return append([]byte(nil), raw...), nil
}

// readSpec loads a job's spec file and verifies it against the content
// address: the bytes must parse as a valid spec whose hash is the job ID.
func readSpec(path, id string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	if got := s.ID(); got != id {
		return nil, fmt.Errorf("jobs: spec hash %s does not match job id %s: corrupted spec", got, id)
	}
	return s, nil
}
