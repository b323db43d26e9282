package cas

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// ScrubReport summarises one integrity pass over the store.
type ScrubReport struct {
	Blobs        int // blob files verified (envelope + digest)
	IndexEntries int // index files verified (envelope + name binding)
	Corrupt      int // files that failed and were quarantined
}

// Scrub walks every blob and index file, verifies it the same way a Get
// would — envelope CRC, payload digest against the file name, index
// entries strictly decoded — and quarantines whatever fails, so latent
// disk corruption is found before a request trips over it. Scrubbing
// never deletes: the damaged file moves to quarantine/ as evidence and
// the live tree simply misses, degrading to recompute. Temp files are
// skipped: each is a write in flight that is about to be renamed into
// place (Open clears those a crash left). The walk polls ctx between
// files, so a draining daemon stops a scrub promptly.
func (s *Store) Scrub(ctx context.Context) (ScrubReport, error) {
	var rep ScrubReport
	walk := func(sub string, count *int, verify func(path string) bool) error {
		return filepath.Walk(filepath.Join(s.dir, sub), func(path string, info os.FileInfo, err error) error {
			if isTemp(path) {
				return nil // even if it was renamed away after the listing
			}
			if err != nil || info.IsDir() {
				return err
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			*count++
			if !verify(path) {
				rep.Corrupt++
			}
			return nil
		})
	}
	if err := walk(blobsDir, &rep.Blobs, s.scrubBlob); err != nil {
		return rep, fmt.Errorf("cas: scrub: %w", err)
	}
	if err := walk(indexDir, &rep.IndexEntries, s.scrubIndex); err != nil {
		return rep, fmt.Errorf("cas: scrub: %w", err)
	}
	s.opts.Counters.Add("cas_scrubs_total", 1)
	return rep, nil
}

// scrubBlob verifies one blob file in place, quarantining on failure.
// Reports whether the file is healthy.
func (s *Store) scrubBlob(path string) bool {
	if err := s.verifyBlobFile(path); err == nil {
		return true
	}
	s.quarantine(path)
	if key, err := ParseKey(filepath.Base(path)); err == nil {
		s.drop(key) // only well-named blobs were ever in the accounting
	}
	s.opts.Counters.Add("cas_scrub_corrupt_total", 1)
	return false
}

// verifyBlobFile re-checks one blob exactly as Get would: the name is a
// key, the envelope validates, and the payload hashes to the name.
func (s *Store) verifyBlobFile(path string) error {
	key, err := ParseKey(filepath.Base(path))
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	payload, err := UnsealBlob(data)
	if err != nil {
		return err
	}
	if KeyOf(payload) != key {
		return fmt.Errorf("cas: content digest does not match key %s", key)
	}
	return nil
}

// scrubIndex verifies one index file in place (envelope, strict decode,
// digest-path binding), quarantining on failure. The recorded name must
// hash to the file's own path — an index file copied to the wrong slot
// is as corrupt as a flipped bit.
func (s *Store) scrubIndex(path string) bool {
	if err := s.verifyIndexFile(path); err == nil {
		return true
	}
	s.quarantine(path)
	s.opts.Counters.Add("cas_scrub_corrupt_total", 1)
	return false
}

// verifyIndexFile validates one index entry and its path binding.
func (s *Store) verifyIndexFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	payload, err := UnsealBlob(data)
	if err != nil {
		return err
	}
	var ent indexEntry
	if err := strictJSON(payload, &ent); err != nil {
		return err
	}
	if _, err := ParseKey(ent.Key); err != nil {
		return err
	}
	if s.indexPath(ent.Name) != path {
		return fmt.Errorf("cas: index entry for %q stored at the wrong path", ent.Name)
	}
	return nil
}
