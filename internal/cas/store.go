package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"imtrans/internal/stats"
)

// Options parameterise a Store. The zero value is a fast (non-fsynced),
// unbounded store with private counters.
type Options struct {
	// Fsync makes every blob and index write power-fail durable (temp
	// file fsync + directory fsync around the rename). Off by default:
	// everything in the store is re-derivable, so crash-consistency (which
	// the rename alone provides) is enough unless restarts must never
	// recompute.
	Fsync bool

	// MaxBytes bounds the blob payload bytes the store retains; past it
	// the least-recently-used unpinned blobs are evicted. <= 0 means
	// unbounded.
	MaxBytes int64

	// Counters receives the store's telemetry (cas_hits_total,
	// cas_misses_total, cas_puts_total, cas_evictions_total,
	// cas_corrupt_total, cas_scrub_corrupt_total, cas_quarantined_total,
	// cas_write_errors_total); nil allocates a private set.
	Counters *stats.Counters

	// WriteFault, when non-nil, intercepts every atomic write for fault
	// injection: it may report part of the data as written (a short
	// write) and returns the error to inject. Tests use it to prove a
	// failed write — ENOSPC, a torn buffer — never leaves a partial blob
	// visible and surfaces a typed *WriteError.
	WriteFault func(path string, data []byte) (int, error)
}

// Store is an on-disk content-addressed blob store with a name→digest
// index. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	blobs map[Key]*blobMeta
	bytes int64 // payload bytes of live blobs
	qseq  int
}

// blobMeta is the in-memory accounting for one live blob.
type blobMeta struct {
	size int64 // payload bytes
	last int64 // last access, unix nanos; drives LRU eviction
	pins int   // in-flight references GC must not evict
}

// Store subdirectories.
const (
	blobsDir      = "blobs"
	indexDir      = "index"
	quarantineDir = "quarantine"
)

// tempPrefix starts the name of every temp file writeFileAtomic lands
// data in before renaming it over its target.
const tempPrefix = ".cas-"

// isTemp reports whether path names a writeFileAtomic temp file.
func isTemp(path string) bool { return strings.HasPrefix(filepath.Base(path), tempPrefix) }

// Open creates (or reopens) the store rooted at dir, scanning the blob
// tree to rebuild the byte accounting and the LRU clock (from file
// mtimes, which Get refreshes on every hit). A file in the blob tree
// whose name is not a digest is quarantined on sight — nothing with an
// unverifiable identity stays in the live tree — and so is a temp file
// in the index tree: no writer exists yet, so it was left by a crash.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: store directory is required")
	}
	if opts.Counters == nil {
		opts.Counters = &stats.Counters{}
	}
	for _, sub := range []string{blobsDir, indexDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cas: %w", err)
		}
	}
	s := &Store{dir: dir, opts: opts, blobs: make(map[Key]*blobMeta)}
	err := filepath.Walk(filepath.Join(dir, blobsDir), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		key, kerr := ParseKey(filepath.Base(path))
		if kerr != nil {
			s.quarantine(path)
			return nil
		}
		s.blobs[key] = &blobMeta{
			size: payloadSize(info.Size()),
			last: info.ModTime().UnixNano(),
		}
		s.bytes += payloadSize(info.Size())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	err = filepath.Walk(filepath.Join(dir, indexDir), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && isTemp(path) {
			s.quarantine(path)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return s, nil
}

// payloadSize converts a sealed file size to payload bytes (never
// negative, even for a garbage file smaller than a header).
func payloadSize(fileSize int64) int64 {
	if fileSize <= int64(headerSize) {
		return 0
	}
	return fileSize - int64(headerSize)
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// Counters exposes the store's telemetry set.
func (s *Store) Counters() *stats.Counters { return s.opts.Counters }

// Stats reports the live blob count and their payload bytes — the
// cas_blobs / cas_bytes gauges.
func (s *Store) Stats() (blobs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs), s.bytes
}

// blobPath fans a key out over two directory levels so no single
// directory accumulates millions of entries.
func (s *Store) blobPath(k Key) string {
	h := k.String()
	return filepath.Join(s.dir, blobsDir, h[:2], h[2:4], h)
}

// indexPath fans a name's digest out the same way.
func (s *Store) indexPath(name string) string {
	h := hex.EncodeToString(nameDigest(name))
	return filepath.Join(s.dir, indexDir, h[:2], h[2:4], h)
}

func nameDigest(name string) []byte {
	d := sha256.Sum256([]byte(name))
	return d[:]
}

// Put stores a payload under its digest and returns the key. A payload
// the store already holds is only touched (its LRU clock refreshes);
// landing a new blob may evict cold unpinned blobs past the byte budget.
// The new blob itself is never a candidate for its own Put's eviction
// pass — it is the most recently used by construction.
func (s *Store) Put(data []byte) (Key, error) {
	key := KeyOf(data)
	s.mu.Lock()
	if m, ok := s.blobs[key]; ok {
		m.last = time.Now().UnixNano()
		s.mu.Unlock()
		return key, nil
	}
	s.mu.Unlock()

	path := s.blobPath(key)
	if err := s.writeFileAtomic(path, SealBlob(data)); err != nil {
		return Key{}, err
	}
	s.mu.Lock()
	if _, ok := s.blobs[key]; !ok {
		s.blobs[key] = &blobMeta{size: int64(len(data)), last: time.Now().UnixNano()}
		s.bytes += int64(len(data))
		s.opts.Counters.Add("cas_puts_total", 1)
	}
	s.enforceBudgetLocked()
	s.mu.Unlock()
	return key, nil
}

// Get returns the payload stored under key, verifying the envelope CRC
// and that the bytes still hash to their name. A blob that fails either
// check is quarantined and reported as a *CorruptError — the caller
// re-derives, and the next Put restores a good copy. A key the store
// does not hold returns ErrNotFound.
func (s *Store) Get(key Key) ([]byte, error) {
	s.mu.Lock()
	m, ok := s.blobs[key]
	if !ok {
		s.mu.Unlock()
		s.opts.Counters.Add("cas_misses_total", 1)
		return nil, ErrNotFound
	}
	m.pins++ // hold the file against a concurrent GC while we read it
	s.mu.Unlock()

	path := s.blobPath(key)
	data, err := os.ReadFile(path)

	s.mu.Lock()
	if m2, ok := s.blobs[key]; ok && m2 == m {
		m.pins--
	}
	s.mu.Unlock()

	if err != nil {
		// The file vanished under us (external deletion); make the
		// accounting agree and report a miss.
		s.drop(key)
		s.opts.Counters.Add("cas_misses_total", 1)
		return nil, ErrNotFound
	}
	payload, uerr := UnsealBlob(data)
	if uerr == nil && KeyOf(payload) != key {
		uerr = fmt.Errorf("cas: content digest does not match key %s", key)
	}
	if uerr != nil {
		s.quarantine(path)
		s.drop(key)
		s.opts.Counters.Add("cas_corrupt_total", 1)
		s.opts.Counters.Add("cas_misses_total", 1)
		return nil, &CorruptError{Path: path, Err: uerr}
	}
	now := time.Now()
	s.mu.Lock()
	if m2, ok := s.blobs[key]; ok {
		m2.last = now.UnixNano()
	}
	s.mu.Unlock()
	// Persist the recency so LRU ordering survives a restart. Best
	// effort: a failed Chtimes only ages the blob early.
	os.Chtimes(path, now, now)
	s.opts.Counters.Add("cas_hits_total", 1)
	return payload, nil
}

// indexEntry is the sealed payload of one name→digest link.
type indexEntry struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}

// Link records name → key in the index. Re-linking a name atomically
// replaces its previous target (the old blob stays until GC takes it).
func (s *Store) Link(name string, key Key) error {
	if name == "" {
		return fmt.Errorf("cas: link name is required")
	}
	payload, err := json.Marshal(indexEntry{Name: name, Key: key.String()})
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	return s.writeFileAtomic(s.indexPath(name), SealBlob(payload))
}

// Resolve returns the key linked under name. A corrupt index entry is
// quarantined and reported as a *CorruptError; an unknown name returns
// ErrNotFound.
func (s *Store) Resolve(name string) (Key, error) {
	path := s.indexPath(name)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Key{}, ErrNotFound
	}
	if err != nil {
		return Key{}, fmt.Errorf("cas: %w", err)
	}
	key, verr := decodeIndexEntry(data, name)
	if verr != nil {
		s.quarantine(path)
		s.opts.Counters.Add("cas_corrupt_total", 1)
		return Key{}, &CorruptError{Path: path, Err: verr}
	}
	return key, nil
}

// decodeIndexEntry strictly decodes a sealed index file and cross-checks
// the recorded name against the one being resolved — a link file renamed
// onto the wrong digest path never resolves.
func decodeIndexEntry(data []byte, name string) (Key, error) {
	payload, err := UnsealBlob(data)
	if err != nil {
		return Key{}, err
	}
	var ent indexEntry
	if err := strictJSON(payload, &ent); err != nil {
		return Key{}, err
	}
	if name != "" && ent.Name != name {
		return Key{}, fmt.Errorf("cas: index entry names %q, resolved as %q", ent.Name, name)
	}
	return ParseKey(ent.Key)
}

// strictJSON decodes one JSON value rejecting unknown fields and
// trailing content.
func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("cas: trailing data after the entry")
	}
	return nil
}

// PutNamed stores a payload and links name to its digest.
func (s *Store) PutNamed(name string, data []byte) (Key, error) {
	key, err := s.Put(data)
	if err != nil {
		return Key{}, err
	}
	if err := s.Link(name, key); err != nil {
		return Key{}, err
	}
	return key, nil
}

// GetNamed resolves name and returns the verified payload it points to.
// Either layer failing verification quarantines the damaged file and
// surfaces a *CorruptError; a broken link (name resolves, blob evicted
// or missing) is ErrNotFound.
func (s *Store) GetNamed(name string) ([]byte, error) {
	key, err := s.Resolve(name)
	if err != nil {
		return nil, err
	}
	return s.Get(key)
}

// drop removes a key from the live accounting (the file is already gone
// or quarantined).
func (s *Store) drop(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.blobs[key]; ok {
		delete(s.blobs, key)
		s.bytes -= m.size
	}
}

// enforceBudgetLocked evicts least-recently-used unpinned blobs until
// the payload bytes fit the budget. Caller holds s.mu. Eviction deletes
// — unlike corruption, an evicted blob carries no evidence worth keeping.
func (s *Store) enforceBudgetLocked() {
	if s.opts.MaxBytes <= 0 || s.bytes <= s.opts.MaxBytes {
		return
	}
	type cand struct {
		key  Key
		meta *blobMeta
	}
	cands := make([]cand, 0, len(s.blobs))
	for k, m := range s.blobs {
		if m.pins == 0 {
			cands = append(cands, cand{k, m})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].meta.last < cands[j].meta.last })
	for _, c := range cands {
		if s.bytes <= s.opts.MaxBytes {
			return
		}
		os.Remove(s.blobPath(c.key))
		delete(s.blobs, c.key)
		s.bytes -= c.meta.size
		s.opts.Counters.Add("cas_evictions_total", 1)
	}
}

// quarantine moves a file that failed verification into quarantine/,
// never deleting the evidence. The destination name keeps the original
// base plus a sequence number so repeated incidents never collide.
func (s *Store) quarantine(path string) {
	s.mu.Lock()
	s.qseq++
	seq := s.qseq
	s.mu.Unlock()
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", filepath.Base(path), seq))
	if err := os.Rename(path, dst); err != nil {
		// Renaming within one filesystem should not fail; if it does,
		// removing the bad file from the live tree still protects reads.
		os.Remove(path)
	}
	s.opts.Counters.Add("cas_quarantined_total", 1)
}

// writeFileAtomic lands data in a temp file next to path and renames it
// over the target, fsyncing per Options. Any failure — including one
// injected through Options.WriteFault — removes the temp file and
// returns a typed *WriteError: the target path never transitions through
// a partial state.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s.writeErr(path, err)
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return s.writeErr(path, err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return s.writeErr(path, err)
	}
	if s.opts.WriteFault != nil {
		n, ferr := s.opts.WriteFault(path, data)
		if ferr != nil {
			if n > len(data) {
				n = len(data)
			}
			if n > 0 {
				tmp.Write(data[:n]) // the simulated torn write
			}
			return fail(ferr)
		}
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if s.opts.Fsync {
		if err := tmp.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return s.writeErr(path, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return s.writeErr(path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return s.writeErr(path, err)
	}
	if s.opts.Fsync {
		if err := syncDir(dir); err != nil {
			return s.writeErr(path, err)
		}
	}
	return nil
}

func (s *Store) writeErr(path string, err error) error {
	s.opts.Counters.Add("cas_write_errors_total", 1)
	return &WriteError{Path: path, Err: err}
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
