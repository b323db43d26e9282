package scheme

import (
	"math/bits"
	"sync"

	"imtrans/internal/baseline"
	"imtrans/internal/bitline"
	"imtrans/internal/replay"
)

// Stream is the shared per-capture transition-stream layer behind the
// fleet batch kernels: the adjacent-pair XOR structure of the captured
// image, materialised once and read by every grid cell that measures the
// same capture. A delta-RLE trace spends nearly all of its fetches in
// +1 runs, and a +1 run covers a contiguous image span — so any bus cost
// that is a pure function of adjacent text indices becomes an O(1)
// prefix-sum difference over these arrays instead of an O(span) walk.
//
// The eager arrays cover the full-width data bus; everything a specific
// scheme configuration derives from the capture (masked pair popcounts,
// per-lane prefixes, dictionary/codebook lookup tables, address-code
// prefixes) is built lazily exactly once and cached in the derived map,
// so equal-(scheme, spec) cells of a compare grid share one build. A
// Stream is immutable after construction apart from that cache and is
// safe for concurrent use by any number of measurements.
type Stream struct {
	cap *replay.Capture

	// xors[i] = Words[i] ^ Words[i-1] (xors[0] = 0): the raw adjacent-
	// pair difference every masked view derives from.
	xors []uint32

	// pairPop[i] = popcount(xors[i]): the full-width per-pair transition
	// cost, one byte per word so seq kernels stream it from cache.
	pairPop []uint8

	// prefix[i] = sum of pairPop[1..i]: driving Words[lo..hi]
	// sequentially with Words[lo] already on the bus costs
	// prefix[hi] - prefix[lo].
	prefix []uint64

	// lanes[l][i] counts the toggles of bus line l over Words[0..i] —
	// the per-lane prefix decomposition of prefix, built lazily (32x the
	// footprint of prefix, and only masked-width consumers need it).
	lanesOnce sync.Once
	lanes     [32][]uint32

	mu      sync.Mutex
	derived map[string]any
}

// NewStream materialises the transition-stream layer of a capture.
func NewStream(cap *replay.Capture) *Stream {
	n := len(cap.Words)
	st := &Stream{
		cap:     cap,
		xors:    make([]uint32, n),
		pairPop: make([]uint8, n),
		prefix:  make([]uint64, n),
		derived: make(map[string]any),
	}
	bitline.AdjacentXORs(st.xors, cap.Words)
	bitline.PopCounts8(st.pairPop, st.xors)
	bitline.PrefixSums64(st.prefix, st.pairPop)
	return st
}

// SpanCost returns the data-bus transitions of driving Words[lo..hi]
// sequentially with Words[lo] already on the bus.
func (st *Stream) SpanCost(lo, hi int32) uint64 { return st.prefix[hi] - st.prefix[lo] }

// LanePrefixes returns the per-lane toggle prefix sums, built on first
// use: lanes[l][i] counts the transitions of bus line l across
// Words[0..i]. Masked span costs sum the set lanes — O(width) per span
// for any mask without materialising a per-mask array.
func (st *Stream) LanePrefixes() *[32][]uint32 {
	st.lanesOnce.Do(func() {
		n := len(st.xors)
		flat := make([]uint32, 32*n)
		for l := range st.lanes {
			st.lanes[l] = flat[l*n : (l+1)*n : (l+1)*n]
		}
		for i := 1; i < n; i++ {
			for x := st.xors[i]; x != 0; x &= x - 1 {
				st.lanes[bits.TrailingZeros32(x)][i]++
			}
		}
		for l := range st.lanes {
			lane := st.lanes[l]
			for i := 1; i < n; i++ {
				lane[i] += lane[i-1]
			}
		}
	})
	return &st.lanes
}

// SpanCostMasked is SpanCost restricted to the lines of mask, answered
// from the per-lane prefixes.
func (st *Stream) SpanCostMasked(lo, hi int32, mask uint32) uint64 {
	if mask == ^uint32(0) {
		return st.SpanCost(lo, hi)
	}
	lanes := st.LanePrefixes()
	var total uint64
	for m := mask; m != 0; m &= m - 1 {
		lane := lanes[bits.TrailingZeros32(m)]
		total += uint64(lane[hi] - lane[lo])
	}
	return total
}

// derive returns the cached derived table under key, building it exactly
// once per stream; hit reports whether the table was served from the
// cache. This is the cross-cell memoisation of everything a scheme
// configuration precomputes from the capture: equal-(scheme, spec) cells
// ask for the same key and pay one build between them.
func (st *Stream) derive(key string, build func() any) (v any, hit bool) {
	st.mu.Lock()
	if v, ok := st.derived[key]; ok {
		st.mu.Unlock()
		return v, true
	}
	st.mu.Unlock()
	// Build outside the lock: derivations are pure, so a racing double
	// build costs time, never correctness; the first store wins.
	v = build()
	st.mu.Lock()
	if prev, ok := st.derived[key]; ok {
		st.mu.Unlock()
		return prev, false
	}
	st.derived[key] = v
	st.mu.Unlock()
	return v, false
}

// MaskedPairPop returns the per-pair popcount array restricted to the
// lines of mask, cached per distinct mask.
func (st *Stream) MaskedPairPop(mask uint32) []uint8 {
	if mask == ^uint32(0) {
		return st.pairPop
	}
	v, _ := st.derive(maskKey(mask), func() any {
		out := make([]uint8, len(st.xors))
		for i, x := range st.xors {
			out[i] = uint8(bits.OnesCount32(x & mask))
		}
		return out
	})
	return v.([]uint8)
}

func maskKey(mask uint32) string {
	return string([]byte{'m', byte(mask), byte(mask >> 8), byte(mask >> 16), byte(mask >> 24)})
}

// addrTables is the derived per-width address-code structure shared by
// the gray and t0 schemes: prefix sums of the binary and Gray-coded
// address-bus pair costs over the text-index space. Like the data-bus
// arrays, entry i charges the transition from addr(i-1) to addr(i), so a
// +1 fetch run is a prefix difference; T0 needs no array at all — every
// interior step of a +1 run is sequential, freezing the address lines.
type addrTables struct {
	bin  []uint64
	gray []uint64
}

// addrTablesFor builds (or fetches) the address tables of one modelled
// width; the key is shared by gray and t0 cells, so whichever scheme
// measures first pays the build for both.
func (st *Stream) addrTablesFor(width int) (*addrTables, bool) {
	mask := widthMask(width)
	shift := uint(2) // word-aligned fetch: stride 4
	v, hit := st.derive(string([]byte{'a', byte(width)}), func() any {
		n := len(st.cap.Words)
		at := &addrTables{bin: make([]uint64, n), gray: make([]uint64, n)}
		if n == 0 {
			return at
		}
		base := st.cap.Base
		prevA := base & mask
		prevG := baseline.GrayEncode(prevA>>shift) & mask
		for i := 1; i < n; i++ {
			a := (base + uint32(i)*4) & mask
			g := baseline.GrayEncode(a>>shift) & mask
			at.bin[i] = at.bin[i-1] + uint64(bits.OnesCount32((a^prevA)&mask))
			at.gray[i] = at.gray[i-1] + uint64(bits.OnesCount32((g^prevG)&mask))
			prevA, prevG = a, g
		}
		return at
	})
	return v.(*addrTables), hit
}

func widthMask(width int) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(width) - 1
}
