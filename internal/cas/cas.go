// Package cas is the persistent content-addressed blob store underneath
// the daemon's in-memory result cache: response bodies land here keyed
// by the SHA-256 of their bytes, so a restarted daemon serves them
// instead of re-deriving them. The layout follows the container-storage
// idiom — a two-level fan-out of digest-named blob files plus a
// name→digest index — and the repo's artifact discipline: every file is
// a CRC-sealed envelope written temp-file + rename (optionally fsynced),
// decoded by a strict total decoder, and verified against its digest
// before a byte of it is trusted. Corruption is never repaired in place
// and never deleted: a blob that fails verification is moved to
// quarantine/ as evidence and the caller re-derives, so a damaged store
// degrades to recompute, never to a wrong answer.
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
)

// Envelope constants: every blob and index file starts with the magic,
// a version word, the payload length, and a CRC-32 (IEEE) over the
// payload, followed by the payload bytes.
const (
	Magic   = "imtrans-cas\n" // 12 bytes
	Version = 1

	headerSize = len(Magic) + 4 + 8 + 4
)

// maxBlobBytes bounds any single sealed payload the decoder will accept;
// a corrupt length field must fail fast, not drive a giant allocation.
const maxBlobBytes = 1 << 30

// Key is a blob address: the SHA-256 of the blob's canonical payload
// bytes. The address doubles as the integrity check — Get re-hashes what
// it read and refuses to return bytes whose digest is not their name.
type Key [sha256.Size]byte

// KeyOf addresses a payload.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// String renders the canonical lowercase-hex form.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the canonical form: exactly 64 lowercase hex digits.
// Anything else — wrong length, uppercase, stray bytes — is an error,
// never a panic; the strictness keeps one blob from having two names.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*sha256.Size {
		return Key{}, fmt.Errorf("cas: key %q has length %d, want %d", s, len(s), 2*sha256.Size)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return Key{}, fmt.Errorf("cas: key %q has non-canonical digit %q at %d", s, c, i)
		}
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, fmt.Errorf("cas: %w", err)
	}
	return k, nil
}

// SealBlob wraps a payload in the checksummed envelope ready to write.
func SealBlob(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	n := copy(out, Magic)
	binary.LittleEndian.PutUint32(out[n:], Version)
	binary.LittleEndian.PutUint64(out[n+4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[n+12:], crc32.ChecksumIEEE(payload))
	copy(out[headerSize:], payload)
	return out
}

// UnsealBlob validates an envelope end to end — magic, version, exact
// length, CRC — and returns a copy of the payload. Corrupt, truncated or
// trailing-garbage input returns an error, never a panic. The digest
// check against the blob's name is the caller's (Get verifies it; the
// envelope cannot know what it should be named).
func UnsealBlob(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("cas: truncated envelope (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("cas: not a cas artifact (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("cas: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if n > maxBlobBytes {
		return nil, fmt.Errorf("cas: declared payload of %d bytes exceeds the %d limit", n, maxBlobBytes)
	}
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("cas: declared payload of %d bytes, envelope carries %d", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	want := binary.LittleEndian.Uint32(data[len(Magic)+12:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("cas: checksum mismatch (artifact %#08x, computed %#08x)", want, got)
	}
	return append([]byte(nil), payload...), nil
}

// ErrNotFound reports a key or name the store has never held (or has
// evicted). It is a clean miss: the caller derives and Puts.
var ErrNotFound = errors.New("cas: not found")

// CorruptError reports a blob or index entry that failed verification.
// By the time the caller sees it the damaged file has already been moved
// to quarantine/, so retrying the Get is a clean miss — the caller
// re-derives and the store heals.
type CorruptError struct {
	Path string // original location of the damaged file
	Err  error  // what failed: envelope, CRC, or digest
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("cas: %s failed verification (quarantined): %v", e.Path, e.Err)
}

// Unwrap exposes the underlying validation failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// WriteError reports a failed store write — ENOSPC, a short write, a
// failed rename. The atomic-write discipline guarantees the target path
// still holds its previous content (or nothing): a failed write never
// leaves a partial blob visible.
type WriteError struct {
	Path string
	Err  error
}

// Error implements the error interface.
func (e *WriteError) Error() string { return fmt.Sprintf("cas: writing %s: %v", e.Path, e.Err) }

// Unwrap exposes the underlying I/O error.
func (e *WriteError) Unwrap() error { return e.Err }
