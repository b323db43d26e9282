package replay

import (
	"slices"
	"sync"

	"imtrans/internal/core"
)

// covSpan is one covered block in the coverage table: its image-index
// range [start, start+words) and, once recorded or adopted, its memo.
type covSpan struct {
	start, words int32
	memo         *blockMemo
}

// streamScratch is a replay's working set: the sorted span table, sized
// by the covered-block count, never by the image or the trace. Pooled so
// warm replays allocate nothing for coverage.
type streamScratch struct {
	spans []covSpan
}

var streamPool = sync.Pool{New: func() any { return new(streamScratch) }}

// buildSpans derives the coverage table from the encoding plans: one
// sorted span per covered block, with no memo yet. This is the whole
// image model — O(covered blocks) state, whatever the size of the image
// or the length of the trace.
func (r *replayer) buildSpans(ss *streamScratch, enc *core.Encoding) {
	if cap(ss.spans) < len(enc.Plans) {
		ss.spans = make([]covSpan, 0, len(enc.Plans))
	}
	spans := ss.spans[:0]
	for pi := range enc.Plans {
		p := &enc.Plans[pi]
		spans = append(spans, covSpan{start: int32(p.StartPC-r.base) / 4, words: int32(p.Count)})
	}
	// Plans arrive in heat order; the seek below needs address order.
	slices.SortFunc(spans, func(a, b covSpan) int { return int(a.start) - int(b.start) })
	ss.spans = spans
	r.spans = spans
}

// kindAt classifies an image index: 1 for a covered-block start, 2 for a
// covered interior, 0 for uncovered text.
func (r *replayer) kindAt(idx int32) uint8 {
	if s := r.spanSeek(idx); s < len(r.spans) && r.spans[s].start <= idx {
		if idx == r.spans[s].start {
			return 1
		}
		return 2
	}
	return 0
}

// blockWords returns the word count of the covered block starting at idx;
// valid only where kindAt(idx) == 1.
func (r *replayer) blockWords(idx int32) int32 {
	return r.spans[r.spanSeek(idx)].words
}

// nextCovered returns the smallest covered index at or after idx, or the
// image length when none follows.
func (r *replayer) nextCovered(idx int32) int32 {
	s := r.spanSeek(idx)
	if s == len(r.spans) {
		return int32(len(r.encW))
	}
	if r.spans[s].start <= idx {
		return idx
	}
	return r.spans[s].start
}

// spanSeek returns the smallest span index s such that spans[s] ends past
// idx — the span containing idx if idx is covered, otherwise the next
// covered span (or len(spans) when none follows). A cursor caches the
// last answer: sequential walks and loop replays revisit the same
// neighbourhood, so the check-cursor-then-successor fast path makes the
// per-fetch coverage query a couple of compares, with binary search only
// on genuine long-distance branches.
func (r *replayer) spanSeek(idx int32) int {
	if s := r.spanCur; r.spanOK(s, idx) {
		return s
	} else if s++; s <= len(r.spans) && r.spanOK(s, idx) {
		r.spanCur = s
		return s
	}
	lo, hi := 0, len(r.spans)
	for lo < hi {
		mid := int(uint(lo+hi) / 2)
		if sp := &r.spans[mid]; sp.start+sp.words > idx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r.spanCur = lo
	return lo
}

// spanOK reports whether s is the spanSeek answer for idx: every earlier
// span ends at or before idx and span s (when it exists) ends past it.
func (r *replayer) spanOK(s int, idx int32) bool {
	if s > 0 {
		if sp := &r.spans[s-1]; sp.start+sp.words > idx {
			return false
		}
	}
	if s < len(r.spans) {
		if sp := &r.spans[s]; sp.start+sp.words <= idx {
			return false
		}
	}
	return s <= len(r.spans)
}
