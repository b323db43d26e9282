package bitline

import "math/bits"

// Bulk horizontal transition-counting helpers over 32-bit word streams —
// the packed complement to the vertical Vec/Matrix lanes above. The
// scheme fleet's shared transition stream materialises the adjacent-pair
// XOR structure of a captured image exactly once through these, and the
// differential tests in transitions_test.go pin them against the obvious
// per-element loops.

// AdjacentXORs writes the adjacent-pair XOR stream of words into dst:
// dst[0] = 0 (the first transfer has no predecessor) and
// dst[i] = words[i] ^ words[i-1]. dst and words must have equal length;
// dst may alias words only if they are the same slice walked backwards —
// callers here never alias, so the function requires distinct backing.
func AdjacentXORs(dst, words []uint32) {
	if len(dst) != len(words) {
		panic("bitline: AdjacentXORs length mismatch")
	}
	if len(words) == 0 {
		return
	}
	dst[0] = 0
	for i := 1; i < len(words); i++ {
		dst[i] = words[i] ^ words[i-1]
	}
}

// PopCounts8 writes popcount(src[i]) into dst[i]. A 32-bit popcount fits
// a byte, so per-pair toggle counts stream through cache at one byte per
// transfer.
func PopCounts8(dst []uint8, src []uint32) {
	if len(dst) != len(src) {
		panic("bitline: PopCounts8 length mismatch")
	}
	for i, x := range src {
		dst[i] = uint8(bits.OnesCount32(x))
	}
}
