package replay

import (
	"sync"
	"sync/atomic"

	"imtrans/internal/core"
)

// blockMemo is the recorded outcome of one covered block replayed from an
// idle decoder: the transition deltas of its interior (everything except
// the entry transition, which depends on the bus word before the block)
// and the block's word count. The decoder exit state is not stored — a
// completed block always leaves the decoder in the normalised idle state
// (see the exit normalisation in step), so restoring it is writing the
// zero StreamState. Immutable once stored.
type blockMemo struct {
	interior uint64
	perLine  [32]uint64
	words    int32
}

// MemoStore shares block-outcome memos across measures. A block memo is a
// pure function of the block's start index and its encoded words, and
// per-block encoding depends only on (BlockSize, Funcs, Strategy,
// BusWidth) — never on the selection policy or the table capacities that
// decide which blocks get covered. Measures of encodings that agree on
// that per-block signature (and replay the same capture) therefore
// produce interchangeable memos, and a grid sweep that hands them one
// store pays each block's first verified walk once across the whole
// signature group instead of once per cell.
//
// Callers own the grouping: handing one store to measures with different
// per-block signatures silently corrupts results. Safe for concurrent
// use by any number of measures.
//
// The store also carries the group's core.CandidateSet, so the encodes
// in front of those measures share one candidate list the same way; the
// set, unlike the memos, refuses a mismatched encode with an error.
type MemoStore struct {
	mu    sync.RWMutex
	m     map[int32]*blockMemo
	hits  atomic.Uint64
	cands core.CandidateSet
}

// NewMemoStore returns an empty store.
func NewMemoStore() *MemoStore { return &MemoStore{m: make(map[int32]*blockMemo)} }

// Candidates returns the store's candidate set, or nil for a nil store
// (an encode handed nil builds a private list).
func (s *MemoStore) Candidates() *core.CandidateSet {
	if s == nil {
		return nil
	}
	return &s.cands
}

// get returns the memo recorded for the block starting at idx, if any.
func (s *MemoStore) get(idx int32) *blockMemo {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	bm := s.m[idx]
	s.mu.RUnlock()
	if bm != nil {
		s.hits.Add(1)
	}
	return bm
}

// put publishes a freshly recorded memo; the first writer for a block
// wins, which keeps every reader seeing one immutable value.
func (s *MemoStore) put(idx int32, bm *blockMemo) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.m[idx]; !ok {
		s.m[idx] = bm
	}
	s.mu.Unlock()
}

// Blocks reports how many distinct block memos the store holds.
func (s *MemoStore) Blocks() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Hits reports how many lookups the store has served.
func (s *MemoStore) Hits() uint64 {
	if s == nil {
		return 0
	}
	return s.hits.Load()
}
