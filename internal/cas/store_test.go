package cas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"imtrans/internal/stats"
)

// listFiles returns every regular file under dir, relative paths sorted
// by Walk order.
func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the canonical bytes of something derived")
	key, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if key != KeyOf(payload) {
		t.Fatalf("Put returned key %s, want the payload digest", key)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	blobs, size := s.Stats()
	if blobs != 1 || size != int64(len(payload)) {
		t.Fatalf("Stats = (%d, %d), want (1, %d)", blobs, size, len(payload))
	}
	if _, err := s.Get(KeyOf([]byte("never stored"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
	if hits := s.Counters().Get("cas_hits_total"); hits != 1 {
		t.Fatalf("cas_hits_total = %d, want 1", hits)
	}
	if misses := s.Counters().Get("cas_misses_total"); misses != 1 {
		t.Fatalf("cas_misses_total = %d, want 1", misses)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("persist me")
	key, err := s1.PutNamed("some/name", payload)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetNamed("some/name")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reopened store returned %q, want %q", got, payload)
	}
	if k, err := s2.Resolve("some/name"); err != nil || k != key {
		t.Fatalf("Resolve = (%s, %v), want (%s, nil)", k, err, key)
	}
}

// TestCorruptBlobQuarantinedOnGet is the degradation contract: a blob
// flipped on disk is detected at read time, moved to quarantine/ (never
// deleted), and the key reads as a clean miss afterwards so the caller
// re-derives.
func TestCorruptBlobQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("bytes that will rot on disk")
	key, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, s.blobPath(key))

	_, err = s.Get(key)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Get of flipped blob: got %v, want *CorruptError", err)
	}
	if q := listFiles(t, filepath.Join(dir, quarantineDir)); len(q) != 1 {
		t.Fatalf("quarantine holds %v, want exactly one file", q)
	}
	if _, err := os.Stat(s.blobPath(key)); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still visible in the live tree")
	}
	// The miss after quarantine is clean; a re-Put heals the store.
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: got %v, want ErrNotFound", err)
	}
	if _, err := s.Put(payload); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("re-derived blob: got (%q, %v)", got, err)
	}
	if n := s.Counters().Get("cas_corrupt_total"); n != 1 {
		t.Fatalf("cas_corrupt_total = %d, want 1", n)
	}
}

// TestScrubQuarantinesFlippedBlob: the background integrity pass finds
// rot before any request does.
func TestScrubQuarantinesFlippedBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := []byte("healthy blob")
	if _, err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	bad := []byte("doomed blob")
	badKey, err := s.Put(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Link("doomed", badKey); err != nil {
		t.Fatal(err)
	}
	flipByte(t, s.blobPath(badKey))
	flipByte(t, s.indexPath("doomed"))

	rep, err := s.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blobs != 2 || rep.IndexEntries != 1 || rep.Corrupt != 2 {
		t.Fatalf("ScrubReport = %+v, want 2 blobs, 1 index entry, 2 corrupt", rep)
	}
	if q := listFiles(t, filepath.Join(dir, quarantineDir)); len(q) != 2 {
		t.Fatalf("quarantine holds %v, want two files", q)
	}
	if _, err := s.Get(KeyOf(good)); err != nil {
		t.Fatalf("healthy blob damaged by scrub: %v", err)
	}
	if _, err := s.Get(badKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("scrubbed blob: got %v, want ErrNotFound", err)
	}
	if n := s.Counters().Get("cas_scrub_corrupt_total"); n != 2 {
		t.Fatalf("cas_scrub_corrupt_total = %d, want 2", n)
	}
}

func TestScrubHonoursCancellation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("blob %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Scrub(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scrub: got %v, want context.Canceled", err)
	}
}

// TestWriteFaultLeavesNoPartialBlob is the ENOSPC/short-write contract:
// a write that fails partway surfaces a typed *WriteError, leaves no
// blob visible under the key, and leaves no temp litter behind.
func TestWriteFaultLeavesNoPartialBlob(t *testing.T) {
	dir := t.TempDir()
	var armed bool
	s, err := Open(dir, Options{
		WriteFault: func(path string, data []byte) (int, error) {
			if armed {
				return len(data) / 2, syscall.ENOSPC // torn halfway through
			}
			return 0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("this write is doomed to run out of disk")
	armed = true
	_, err = s.Put(payload)
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("faulted Put: got %v, want *WriteError", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted Put should unwrap to ENOSPC, got %v", err)
	}
	if _, gerr := s.Get(KeyOf(payload)); !errors.Is(gerr, ErrNotFound) {
		t.Fatalf("after failed Put: got %v, want ErrNotFound (no partial blob visible)", gerr)
	}
	if files := listFiles(t, filepath.Join(dir, blobsDir)); len(files) != 0 {
		t.Fatalf("failed write left files in the blob tree: %v", files)
	}
	if blobs, size := s.Stats(); blobs != 0 || size != 0 {
		t.Fatalf("failed write corrupted accounting: (%d, %d)", blobs, size)
	}
	if n := s.Counters().Get("cas_write_errors_total"); n != 1 {
		t.Fatalf("cas_write_errors_total = %d, want 1", n)
	}

	// The same Put succeeds once the fault clears: nothing was poisoned.
	armed = false
	if _, err := s.Put(payload); err != nil {
		t.Fatalf("Put after fault cleared: %v", err)
	}
	if got, err := s.Get(KeyOf(payload)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after recovery: (%q, %v)", got, err)
	}
}

// TestLinkWriteFaultPreservesOldTarget: a failed re-link must leave the
// previous name→digest binding intact, not a torn one.
func TestLinkWriteFaultPreservesOldTarget(t *testing.T) {
	var fail bool
	s, err := Open(t.TempDir(), Options{
		WriteFault: func(path string, data []byte) (int, error) {
			if fail {
				return 3, syscall.ENOSPC
			}
			return 0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := []byte("version one")
	k1, err := s.PutNamed("latest", v1)
	if err != nil {
		t.Fatal(err)
	}
	fail = true
	k2, err := s.Put([]byte("version two"))
	if err == nil {
		// Put of new content fails under the fault; that's the expected
		// path. If the blob somehow landed, the Link below must fail.
		if lerr := s.Link("latest", k2); lerr == nil {
			t.Fatal("faulted Link succeeded")
		}
	}
	fail = false
	if k, err := s.Resolve("latest"); err != nil || k != k1 {
		t.Fatalf("after failed relink Resolve = (%s, %v), want old target %s", k, err, k1)
	}
	if got, err := s.GetNamed("latest"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("old binding unreadable after failed relink: (%q, %v)", got, err)
	}
}

// TestGCEvictsLRUAndRespectsPins: the byte budget evicts the coldest
// unpinned blob first and never one pinned by an in-flight Get.
func TestGCEvictsLRUAndRespectsPins(t *testing.T) {
	blob := func(tag byte) []byte {
		b := bytes.Repeat([]byte{tag}, 100)
		return b
	}
	s, err := Open(t.TempDir(), Options{MaxBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	held := func(k Key) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.blobs[k]
		return ok
	}
	pin := func(k Key, delta int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.blobs[k].pins += delta
	}
	ka, err := s.Put(blob('a'))
	if err != nil {
		t.Fatal(err)
	}
	// Hold 'a' the way an in-flight Get does while it reads the file.
	pin(ka, 1)
	time.Sleep(2 * time.Millisecond) // separate LRU clocks
	kb, err := s.Put(blob('b'))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	kc, err := s.Put(blob('c')) // 300 bytes live > 250 budget: evict
	if err != nil {
		t.Fatal(err)
	}

	// 'a' is older than 'b' but pinned; 'b' must be the victim.
	if !held(ka) {
		t.Fatal("pinned blob was evicted")
	}
	if held(kb) {
		t.Fatal("LRU victim survived past the budget")
	}
	if !held(kc) {
		t.Fatal("just-written blob was evicted by its own Put")
	}
	if n := s.Counters().Get("cas_evictions_total"); n != 1 {
		t.Fatalf("cas_evictions_total = %d, want 1", n)
	}

	// Released, 'a' becomes evictable by the next overflow.
	pin(ka, -1)
	time.Sleep(2 * time.Millisecond)
	if _, err := s.Put(blob('d')); err != nil {
		t.Fatal(err)
	}
	if held(ka) {
		t.Fatal("released blob survived the next eviction pass")
	}
}

func TestOpenQuarantinesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, blobsDir, "zz"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobsDir, "zz", "not-a-digest"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Counters: &stats.Counters{}})
	if err != nil {
		t.Fatal(err)
	}
	if blobs, _ := s.Stats(); blobs != 0 {
		t.Fatalf("foreign file counted as a blob")
	}
	if q := listFiles(t, filepath.Join(dir, quarantineDir)); len(q) != 1 {
		t.Fatalf("quarantine holds %v, want the foreign file", q)
	}
}

func TestResolveRejectsWrongName(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.PutNamed("name-a", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Copy a-entry's file onto b's slot: the embedded name no longer
	// matches, so the resolve must refuse and quarantine.
	data, err := os.ReadFile(s.indexPath("name-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.indexPath("name-b")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.indexPath("name-b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := s.Resolve("name-b")
	var ce *CorruptError
	if !errors.As(rerr, &ce) {
		t.Fatalf("Resolve of misplanted entry: got %v, want *CorruptError", rerr)
	}
	if k, err := s.Resolve("name-a"); err != nil || k != key {
		t.Fatalf("original entry damaged: (%s, %v)", k, err)
	}
}

// flipByte corrupts one byte in the middle of a file in place.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
