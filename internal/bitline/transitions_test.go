package bitline

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestTransitionHelpersDifferential pins the bulk transition helpers
// against their obvious per-element definitions on random word streams,
// including the length-zero and length-one edges.
func TestTransitionHelpersDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		words := make([]uint32, n)
		for i := range words {
			words[i] = r.Uint32()
		}

		xors := make([]uint32, n)
		AdjacentXORs(xors, words)
		for i := range words {
			want := uint32(0)
			if i > 0 {
				want = words[i] ^ words[i-1]
			}
			if xors[i] != want {
				t.Fatalf("n=%d: AdjacentXORs[%d] = %#x, want %#x", n, i, xors[i], want)
			}
		}

		pops := make([]uint8, n)
		PopCounts8(pops, xors)
		for i := range xors {
			if int(pops[i]) != bits.OnesCount32(xors[i]) {
				t.Fatalf("n=%d: PopCounts8[%d] = %d, want %d", n, i, pops[i], bits.OnesCount32(xors[i]))
			}
		}
	}
}

// TestTransitionHelpersLengthChecks pins the length-mismatch panics: a
// silently truncated XOR or popcount array would corrupt every kernel
// table built on it.
func TestTransitionHelpersLengthChecks(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted mismatched lengths", name)
			}
		}()
		fn()
	}
	expectPanic("AdjacentXORs", func() { AdjacentXORs(make([]uint32, 2), make([]uint32, 3)) })
	expectPanic("PopCounts8", func() { PopCounts8(make([]uint8, 2), make([]uint32, 3)) })
}
