package code

import (
	"fmt"
	"slices"

	"imtrans/internal/transform"
)

// This file explores the paper's stated generalisation (Section 5.1):
// transformations with h history bits, x_n = tau(x~_n, x_{n-1}, ..., x_{n-h}),
// evaluated here for h = 2. The paper restricts itself to h = 1 "in this
// paper"; the h = 2 numbers quantify what the extra history (and the
// 256-function space, needing 8-bit selectors) would buy.

// Func2 is a Boolean function of three bits: the encoded bit x and two
// history bits. Its value is the truth table packed into eight bits, bit
// (x<<2 | y1<<1 | y2) being tau(x, y1, y2) where y1 = x_{n-1} (newer) and
// y2 = x_{n-2} (older).
type Func2 uint8

// Eval2 computes tau(x, y1, y2) for single-bit operands.
func (f Func2) Eval2(x, y1, y2 uint8) uint8 {
	return uint8(f>>((x&1)<<2|(y1&1)<<1|y2&1)) & 1
}

// String renders the truth table; three-variable functions rarely have
// common gate names.
func (f Func2) String() string { return fmt.Sprintf("tt2(%#08b)", uint8(f)) }

// Reduction2 extends the Figure 3 analysis to two history bits. For each
// k-bit word the first two bits pass through unencoded (their history is
// incomplete) and every later bit obeys x_i = tau(x~_i, x_{i-1}, x_{i-2})
// with original-bit history, the direct generalisation of the paper's
// h = 1 system. The full 2^8-function space is searched via constraint
// consistency (no function enumeration is needed: a candidate code word is
// feasible iff its implied truth-table entries do not conflict).
//
// It returns the reduction row and the set of (canonicalised) functions a
// lowest-candidate table assignment uses — an upper bound on the selector
// alphabet a hardware implementation would need.
func Reduction2(k int) (Reduction, []Func2, error) {
	if k < 3 || k > MaxTableBlockSize {
		return Reduction{}, nil, fmt.Errorf("code: h=2 block size %d out of range [3,%d]", k, MaxTableBlockSize)
	}
	r := Reduction{K: k}
	// Candidates share the word's low two bits (passthrough prefix), so
	// four search orders serve every word.
	var orders [4][]uint32
	for low := range orders {
		orders[low] = countingOrder(k, 2, uint32(low))
	}
	used := map[Func2]bool{}
	for v := uint32(0); v < 1<<uint(k); v++ {
		r.TTN += transitionsOf(v, k)
		best := -1
		var bestFn Func2
		for _, e := range orders[v&3] {
			t := candTrans(e)
			if best >= 0 && t >= best {
				break
			}
			if fn, ok := solveTau2(candValue(e), v, k); ok {
				best, bestFn = t, fn
			}
		}
		if best < 0 {
			return Reduction{}, nil, fmt.Errorf("code: h=2 word %0*b infeasible", k, v)
		}
		r.RTN += best
		used[bestFn] = true
	}
	if r.TTN > 0 {
		r.Improvement = 100 * float64(r.TTN-r.RTN) / float64(r.TTN)
	}
	fns := make([]Func2, 0, len(used))
	for f := range used {
		fns = append(fns, f)
	}
	slices.Sort(fns)
	return r, fns, nil
}

// solveTau2 checks whether some three-variable function maps code word c
// to original word b (width k) under the h=2 decode equations, and returns
// the canonical such function (free truth-table entries zeroed).
func solveTau2(c, b uint32, k int) (Func2, bool) {
	var fixed, value uint8 // masks over the 8 truth-table entries
	for i := 2; i < k; i++ {
		x := uint8(c>>uint(i)) & 1
		y1 := uint8(b>>uint(i-1)) & 1
		y2 := uint8(b>>uint(i-2)) & 1
		bi := uint8(b>>uint(i)) & 1
		idx := x<<2 | y1<<1 | y2
		bit := uint8(1) << idx
		if fixed&bit != 0 {
			if (value>>idx)&1 != bi {
				return 0, false
			}
			continue
		}
		fixed |= bit
		value |= bi << idx
	}
	return Func2(value), true
}

// HistoryComparison contrasts the paper's h=1 codes with the h=2
// generalisation for one block size.
type HistoryComparison struct {
	K            int
	H1           Reduction
	H2           Reduction
	H2FuncsUsed  int     // distinct three-variable functions one table needs
	ExtraPercent float64 // improvement points gained by the second history bit
}

// CompareHistoryDepths computes the h=1 vs h=2 comparison for block sizes
// 3..maxK.
func CompareHistoryDepths(maxK int) ([]HistoryComparison, error) {
	var out []HistoryComparison
	for k := 3; k <= maxK; k++ {
		h1, err := TheoreticalReduction(k, transform.All())
		if err != nil {
			return nil, err
		}
		h2, fns, err := Reduction2(k)
		if err != nil {
			return nil, err
		}
		out = append(out, HistoryComparison{
			K:            k,
			H1:           h1,
			H2:           h2,
			H2FuncsUsed:  len(fns),
			ExtraPercent: h2.Improvement - h1.Improvement,
		})
	}
	return out, nil
}
