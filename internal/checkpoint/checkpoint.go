// Package checkpoint journals the completed cells of a long measurement
// sweep so an interrupted run can resume exactly where it stopped.
//
// The journal is an append-only log of compact JSON lines. The first line
// is a header: magic, version, a caller-computed grid-identity hash and
// the benchmark and config names, which bind the file to one grid. Every
// later line is one completed cell: its grid indices, the measurement
// payload as the caller serialised it, and a chained CRC-32 (IEEE). The
// chain runs over the grid fields and then over each cell in journal
// order, and every line stores its running value, so a deleted,
// duplicated or reordered line breaks the chain just as a flipped byte
// does. Read verifies every line before any recorded cell is trusted, in
// internal/objfile's validation discipline.
//
// Open creates a fresh journal's header through a temp file and a rename,
// so a crash never leaves a torn header. Record then makes one write at
// the end of the file, so a journal's writes grow with its cells, not
// with their square. A crash mid-append can leave only an unterminated
// final line: it is never trusted, and Open cuts it away before it
// appends again.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Magic and Version identify the checkpoint artifact format. Version 1
// was one whole JSON document rewritten on every record; it is refused.
const (
	Magic   = "imtrans-checkpoint"
	Version = 2
)

// Cell is one completed grid cell: the benchmark/config indices into the
// grid the journal was opened for, plus the measurement payload as the
// caller serialised it (the journal does not interpret it).
type Cell struct {
	Bench   int             `json:"bench"`
	Config  int             `json:"config"`
	Payload json.RawMessage `json:"measurement"`
}

// File is a decoded journal: the header's envelope and grid, and the
// cells of its complete lines in journal order.
type File struct {
	Magic      string
	Version    int
	Grid       string // caller-computed grid identity hash
	Benchmarks []string
	Configs    []string
	Cells      []Cell
	// Checksum is the chained CRC-32 the journal's last line stores; see
	// Checksum.
	Checksum uint32
}

// header is the journal's first line.
type header struct {
	Magic      string   `json:"magic"`
	Version    int      `json:"version"`
	Grid       string   `json:"grid"`
	Benchmarks []string `json:"benchmarks"`
	Configs    []string `json:"configs"`
	Checksum   uint32   `json:"crc32"`
}

// line is one cell line: {"bench","config","measurement","crc32"}.
type line struct {
	Cell
	Checksum uint32 `json:"crc32"`
}

// Checksum computes the journal's chained integrity checksum: CRC-32
// (IEEE) over a canonical little-endian serialisation of the grid
// identity and names, then of each cell's indices, payload length and
// payload bytes in journal order. The running value after the grid is
// what the header line stores and the value after each cell is what that
// cell's line stores, so the result is the last line's value. Magic,
// Version and the stored checksums are excluded, as in internal/objfile.
func Checksum(f *File) uint32 {
	sum := gridSum(f)
	for i := range f.Cells {
		sum = cellSum(sum, &f.Cells[i])
	}
	return sum
}

// gridSum starts the chain: the CRC of the grid identity and names.
func gridSum(f *File) uint32 {
	var b []byte
	putStr := func(s string) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	putStr(f.Grid)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Benchmarks)))
	for _, s := range f.Benchmarks {
		putStr(s)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Configs)))
	for _, s := range f.Configs {
		putStr(s)
	}
	return crc32.ChecksumIEEE(b)
}

// cellSum extends the chain at prev by one cell.
func cellSum(prev uint32, c *Cell) uint32 {
	var w [12]byte
	binary.LittleEndian.PutUint32(w[0:], uint32(c.Bench))
	binary.LittleEndian.PutUint32(w[4:], uint32(c.Config))
	binary.LittleEndian.PutUint32(w[8:], uint32(len(c.Payload)))
	return crc32.Update(crc32.Update(prev, crc32.IEEETable, w[:]), crc32.IEEETable, c.Payload)
}

// Verify validates an in-memory checkpoint as Read does: envelope, grid
// shape, the chained CRC, per-cell index ranges, duplicate cells and
// payload well-formedness. A checkpoint that verifies is safe to resume
// from.
func Verify(f *File) error {
	if err := verifyHeader(f); err != nil {
		return err
	}
	if got := Checksum(f); got != f.Checksum {
		return fmt.Errorf("checkpoint: checksum mismatch (artifact %#08x, computed %#08x): corrupted journal", f.Checksum, got)
	}
	seen := make(map[[2]int]bool, len(f.Cells))
	for i := range f.Cells {
		if err := verifyCell(f, seen, i); err != nil {
			return err
		}
	}
	return nil
}

func verifyHeader(f *File) error {
	if f.Magic != Magic {
		return fmt.Errorf("checkpoint: not a checkpoint artifact (magic %q)", f.Magic)
	}
	if f.Version != Version {
		return fmt.Errorf("checkpoint: unsupported version %d", f.Version)
	}
	if f.Grid == "" {
		return fmt.Errorf("checkpoint: missing grid identity")
	}
	if len(f.Benchmarks) == 0 || len(f.Configs) == 0 {
		return fmt.Errorf("checkpoint: empty grid (%d benchmarks, %d configs)", len(f.Benchmarks), len(f.Configs))
	}
	return nil
}

// verifyCell checks cell i against the grid and the cells before it,
// whose keys seen holds; it adds cell i's key.
func verifyCell(f *File, seen map[[2]int]bool, i int) error {
	c := &f.Cells[i]
	if c.Bench < 0 || c.Bench >= len(f.Benchmarks) {
		return fmt.Errorf("checkpoint: cell %d benchmark index %d outside grid (%d benchmarks)", i, c.Bench, len(f.Benchmarks))
	}
	if c.Config < 0 || c.Config >= len(f.Configs) {
		return fmt.Errorf("checkpoint: cell %d config index %d outside grid (%d configs)", i, c.Config, len(f.Configs))
	}
	key := [2]int{c.Bench, c.Config}
	if seen[key] {
		return fmt.Errorf("checkpoint: duplicate cell (%s, %s)", f.Benchmarks[c.Bench], f.Configs[c.Config])
	}
	seen[key] = true
	if len(c.Payload) == 0 || !json.Valid(c.Payload) {
		return fmt.Errorf("checkpoint: cell %d has a malformed measurement payload", i)
	}
	return nil
}

// compactPayload canonicalises a cell payload to compact JSON, the form
// a cell line carries and the checksum covers.
func compactPayload(p json.RawMessage) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read decodes and fully validates a checkpoint from r. Malformed or
// corrupted input returns an error, never a panic and never a partially
// trusted journal; an unterminated final line is a torn append and is
// dropped.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, _, err := parse(data)
	return f, err
}

// parse decodes and validates a journal image. It returns the file and
// the length of the prefix it trusts, which ends at the last newline:
// bytes after it are a torn append.
func parse(data []byte) (*File, int, error) {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		return nil, 0, fmt.Errorf("checkpoint: torn header: no complete first line in %d bytes", len(data))
	}
	var h header
	if err := json.Unmarshal(data[:end], &h); err != nil {
		// A version-1 journal was one indented document, so its first
		// line alone is not JSON: name its version instead.
		var old header
		if json.NewDecoder(bytes.NewReader(data)).Decode(&old) == nil && old.Magic == Magic && old.Version != Version {
			return nil, 0, fmt.Errorf("checkpoint: unsupported version %d", old.Version)
		}
		return nil, 0, fmt.Errorf("checkpoint: header: %w", err)
	}
	f := &File{Magic: h.Magic, Version: h.Version, Grid: h.Grid, Benchmarks: h.Benchmarks, Configs: h.Configs}
	if err := verifyHeader(f); err != nil {
		return nil, 0, err
	}
	sum := gridSum(f)
	if h.Checksum != sum {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch in header (artifact %#08x, computed %#08x): corrupted journal", h.Checksum, sum)
	}
	seen := make(map[[2]int]bool)
	n := end + 1
	for {
		end := bytes.IndexByte(data[n:], '\n')
		if end < 0 {
			break
		}
		i := len(f.Cells)
		var l line
		if err := json.Unmarshal(data[n:n+end], &l); err != nil {
			return nil, 0, fmt.Errorf("checkpoint: cell %d: %w", i, err)
		}
		sum = cellSum(sum, &l.Cell)
		if l.Checksum != sum {
			return nil, 0, fmt.Errorf("checkpoint: checksum mismatch at cell %d (artifact %#08x, computed %#08x): corrupted journal", i, l.Checksum, sum)
		}
		f.Cells = append(f.Cells, l.Cell)
		if err := verifyCell(f, seen, i); err != nil {
			return nil, 0, err
		}
		n += end + 1
	}
	f.Checksum = sum
	return f, n, nil
}

// Load reads and validates the checkpoint at path.
func Load(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return Read(fd)
}

// WriteError reports a failed journal write: the header of a fresh
// journal or one appended cell. The journal previously on disk is intact
// — a fresh header lands by rename, and a failed append is cut back off —
// and the failed cell is not recorded, so the caller may retry the Record
// once the fault (ENOSPC, say) clears.
type WriteError struct {
	Path string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("checkpoint: writing %s: %v", e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// writeFault, when non-nil, intercepts every journal write for fault
// injection: it sees the exact bytes about to be written, may report part
// of them as written (a short write) and returns the error to inject.
// Tests use it to prove a failed write — ENOSPC, a torn buffer — leaves
// the previous journal intact and surfaces a typed *WriteError.
var (
	writeFaultMu sync.Mutex
	writeFault   func(path string, data []byte) (int, error)
)

// SetWriteFault installs (or, with nil, clears) the write-fault
// injection hook and returns the previous one. Test-only.
func SetWriteFault(f func(path string, data []byte) (int, error)) func(path string, data []byte) (int, error) {
	writeFaultMu.Lock()
	defer writeFaultMu.Unlock()
	prev := writeFault
	writeFault = f
	return prev
}

func currentWriteFault() func(path string, data []byte) (int, error) {
	writeFaultMu.Lock()
	defer writeFaultMu.Unlock()
	return writeFault
}

// writeAt writes data to fd at off, through the fault hook when one is
// installed. An injected fault writes the part the hook reports first.
func writeAt(fd *os.File, path string, data []byte, off int64) error {
	if fault := currentWriteFault(); fault != nil {
		if n, err := fault(path, data); err != nil {
			// The simulated torn write; the injected error is the result.
			_, _ = fd.WriteAt(data[:max(0, min(n, len(data)))], off)
			return err
		}
	}
	_, err := fd.WriteAt(data, off)
	return err
}

// create writes a fresh journal holding only its header line: the line
// lands in a temp file in the same directory that is renamed into place,
// so a crash leaves no file or a complete header, never a torn one.
func create(path string, hdr []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*")
	if err != nil {
		return &WriteError{Path: path, Err: err}
	}
	err = writeAt(tmp, path, hdr, 0)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return &WriteError{Path: path, Err: err}
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

// Journal is a live checkpoint: Open it once per sweep and Record each
// completed cell; every Record appends one line to the file. Record is
// safe for concurrent use by sweep workers.
type Journal struct {
	mu         sync.Mutex
	path       string
	rows, cols int
	durable    bool
	synced     bool   // the journal's directory entry has been fsynced
	torn       bool   // a failed append left bytes past size
	size       int64  // bytes on disk: every complete line
	sum        uint32 // the chain's running value, stored by the last line
	have       map[[2]int]bool
}

// SetDurable toggles power-fail durability: with it on, every Record
// fsyncs the file after its append, and the first durable Record also
// fsyncs the directory so the entry the header's rename created survives
// too. Default off — an append already survives process crashes, and
// tests stay fast.
func (j *Journal) SetDurable(on bool) {
	j.mu.Lock()
	j.durable = on
	j.mu.Unlock()
}

// Open loads the journal at path, or creates a fresh one holding only
// its header if the file does not exist. The grid identity and shape must
// match: resuming a journal written for a different grid is an error
// rather than a silent restart, so a stale path never mixes measurements
// from two experiments. A torn final line is cut off the file, so the
// next Record appends after the last complete cell. The returned cells
// (nil for a fresh journal) are the grid cells already completed by the
// interrupted run.
func Open(path, grid string, benchmarks, configs []string) (*Journal, []Cell, error) {
	j := &Journal{path: path, rows: len(benchmarks), cols: len(configs), have: make(map[[2]int]bool)}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f := &File{Magic: Magic, Version: Version, Grid: grid, Benchmarks: benchmarks, Configs: configs}
		if err := verifyHeader(f); err != nil {
			return nil, nil, err // a journal Load would refuse
		}
		h := header{Magic: Magic, Version: Version, Grid: grid, Benchmarks: benchmarks, Configs: configs, Checksum: gridSum(f)}
		hdr, err := json.Marshal(h)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
		hdr = append(hdr, '\n')
		if err := create(path, hdr); err != nil {
			return nil, nil, err
		}
		j.size, j.sum = int64(len(hdr)), h.Checksum
		return j, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	prev, n, err := parse(data)
	if err != nil {
		return nil, nil, err
	}
	if prev.Grid != grid || len(prev.Benchmarks) != j.rows || len(prev.Configs) != j.cols {
		return nil, nil, fmt.Errorf("checkpoint: %s was written for a different grid (journal %s..., run %s...): delete it or pass a fresh path",
			path, short(prev.Grid), short(grid))
	}
	if n < len(data) {
		if err := os.Truncate(path, int64(n)); err != nil {
			return nil, nil, &WriteError{Path: path, Err: err}
		}
	}
	j.size, j.sum = int64(n), prev.Checksum
	for _, c := range prev.Cells {
		j.have[[2]int{c.Bench, c.Config}] = true
	}
	return j, prev.Cells, nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// Record journals one completed cell by appending its line. Recording a
// cell that is already present is a no-op, so resumed runs may re-offer
// restored cells harmlessly.
func (j *Journal) Record(bench, config int, payload json.RawMessage) error {
	if bench < 0 || bench >= j.rows || config < 0 || config >= j.cols {
		return fmt.Errorf("checkpoint: cell (%d,%d) outside the %dx%d grid", bench, config, j.rows, j.cols)
	}
	if len(payload) == 0 {
		return fmt.Errorf("checkpoint: refusing to record an empty payload for cell (%d,%d)", bench, config)
	}
	payload, err := compactPayload(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: refusing to record a malformed payload for cell (%d,%d): %w", bench, config, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	key := [2]int{bench, config}
	if j.have[key] {
		return nil
	}
	l := line{Cell: Cell{Bench: bench, Config: config, Payload: payload}}
	l.Checksum = cellSum(j.sum, &l.Cell)
	b, err := json.Marshal(&l)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b = append(b, '\n')
	if err := j.append(b); err != nil {
		return err
	}
	j.have[key] = true
	j.size += int64(len(b))
	j.sum = l.Checksum
	return nil
}

// append makes one write of ln at the journal's known length, plus the
// fsyncs SetDurable asks for. On any failure the file is cut back to that
// length, byte-identical to before the Record. Caller holds j.mu.
func (j *Journal) append(ln []byte) error {
	fd, err := os.OpenFile(j.path, os.O_WRONLY, 0)
	if err != nil {
		return &WriteError{Path: j.path, Err: err}
	}
	if j.torn {
		// An earlier failed append could not be cut back off: cut it
		// now, so no stale bytes follow this line.
		err = fd.Truncate(j.size)
	}
	if err == nil {
		err = writeAt(fd, j.path, ln, j.size)
	}
	if err == nil && j.durable {
		err = fd.Sync()
		if err == nil && !j.synced {
			err = syncDir(filepath.Dir(j.path))
			j.synced = err == nil
		}
	}
	if cerr := fd.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.torn = os.Truncate(j.path, j.size) != nil
		return &WriteError{Path: j.path, Err: err}
	}
	j.torn = false
	return nil
}

// Len reports the number of journalled cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.have)
}
