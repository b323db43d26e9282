package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"imtrans/internal/cas"
	"imtrans/internal/replay"
)

// encodeBody is a small encode request used by the store tests; mmul at
// N=16 profiles in milliseconds.
const encodeBody = `{"benchmark":{"name":"mmul","n":16},"config":{"block_size":8}}`

// shutdown drains a test server, flushing its write-behind store puts.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStoreServesAcrossRestart: a response computed by one daemon is
// served by a second daemon sharing the store directory — cold LRU, cold
// capture cache — straight from the persistent tier, byte-identically.
func TestStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	replay.Shared.Purge() // no in-memory carryover between daemons

	s1 := mustNew(t, Config{StoreDir: dir})
	w1 := post(t, s1.Handler(), "/v1/encode", encodeBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("first daemon: status %d: %s", w1.Code, w1.Body)
	}
	shutdown(t, s1) // flushes write-behind puts

	replay.Shared.Purge()
	s2 := mustNew(t, Config{StoreDir: dir})
	defer shutdown(t, s2)
	w2 := post(t, s2.Handler(), "/v1/encode", encodeBody)
	if w2.Code != http.StatusOK {
		t.Fatalf("second daemon: status %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("store-served response differs from the computed one")
	}
	if n := s2.Counters().Get("cache_tier_hits_total"); n != 1 {
		t.Fatalf("cache_tier_hits_total = %d, want 1 (response should come from the store)", n)
	}
	if n := s2.Counters().Get("cas_hits_total"); n == 0 {
		t.Fatal("cas_hits_total stayed zero on a store-served request")
	}
}

// TestStoreCorruptionScrubbedAndRederived is the acceptance criterion:
// flip every blob the first daemon wrote, scrub — each flipped blob is
// detected and quarantined, never deleted — then serve the same request
// again and get the bit-identical response back via transparent
// re-derivation.
func TestStoreCorruptionScrubbedAndRederived(t *testing.T) {
	dir := t.TempDir()
	replay.Shared.Purge()

	s1 := mustNew(t, Config{StoreDir: dir})
	w1 := post(t, s1.Handler(), "/v1/encode", encodeBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	shutdown(t, s1)

	// Flip one byte in the middle of every blob on disk.
	var flipped int
	err := filepath.Walk(filepath.Join(dir, "blobs"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		data[len(data)/2] ^= 0x20
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped == 0 {
		t.Fatal("first daemon left no blobs to corrupt")
	}

	// A fresh store over the damaged directory: scrub detects every
	// flipped blob and quarantines it (evidence preserved, not deleted).
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != flipped {
		t.Fatalf("scrub found %d corrupt of %d flipped", rep.Corrupt, flipped)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != flipped {
		t.Fatalf("quarantine holds %d files, want %d", len(quarantined), flipped)
	}

	// The same request against a restarted daemon transparently
	// re-derives the bit-identical response — a damaged store degrades to
	// recompute, never to a wrong answer.
	replay.Shared.Purge()
	s2 := mustNew(t, Config{StoreDir: dir})
	defer shutdown(t, s2)
	w2 := post(t, s2.Handler(), "/v1/encode", encodeBody)
	if w2.Code != http.StatusOK {
		t.Fatalf("after corruption: status %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("re-derived response is not bit-identical")
	}
	if n := s2.Counters().Get("cache_tier_hits_total"); n != 0 {
		t.Fatalf("cache_tier_hits_total = %d after full corruption, want 0 (must recompute)", n)
	}
}

// TestStoreCorruptionCaughtWithoutScrub: even with no scrub pass, a Get
// of a flipped blob verifies, quarantines and misses — the read path
// itself never returns damaged bytes.
func TestStoreCorruptionCaughtWithoutScrub(t *testing.T) {
	dir := t.TempDir()
	replay.Shared.Purge()

	s1 := mustNew(t, Config{StoreDir: dir})
	w1 := post(t, s1.Handler(), "/v1/encode", encodeBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body)
	}
	shutdown(t, s1)

	err := filepath.Walk(filepath.Join(dir, "blobs"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		data[len(data)/2] ^= 0x20
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	replay.Shared.Purge()
	// Scrub interval far beyond the test: only Get-time verification runs.
	s2 := mustNew(t, Config{StoreDir: dir, StoreScrubInterval: time.Hour})
	defer shutdown(t, s2)
	w2 := post(t, s2.Handler(), "/v1/encode", encodeBody)
	if w2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("response served from a corrupt store is not the recomputed one")
	}
}
