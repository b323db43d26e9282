package imtrans

import (
	"fmt"
	"slices"

	"imtrans/internal/code"
	"imtrans/internal/transform"
)

// CodeRow is one row of a power-code table (the paper's Figures 2 and 4):
// an original block word, its minimal-transition code word, and the
// recovering transformation.
type CodeRow struct {
	Word            string // original bits, paper notation (first bit rightmost)
	CodeWord        string // encoded bits
	Tau             string // analytic transformation, e.g. "~(x|y)"
	Transitions     int    // T_x
	CodeTransitions int    // T_x~
}

// CodeTable computes the optimal code table for block size k. With
// restricted=false all 16 two-input functions are searched (Figure 2 uses
// k=3); with restricted=true only the paper's canonical 8 (Figure 4 uses
// k=5).
func CodeTable(k int, restricted bool) ([]CodeRow, error) {
	funcs := transform.Preferred()
	if restricted {
		funcs = transform.Canonical8
	}
	rows, err := code.OptimalTable(k, funcs)
	if err != nil {
		return nil, err
	}
	out := make([]CodeRow, len(rows))
	for i, r := range rows {
		out[i] = CodeRow{
			Word:            r.Word,
			CodeWord:        r.CodeWord,
			Tau:             r.Tau.String(),
			Transitions:     r.Transitions,
			CodeTransitions: r.CodeTrans,
		}
	}
	return out, nil
}

// TheoryRow is one row of the paper's Figure 3: total and reduced
// transition numbers over all words of a block size.
type TheoryRow struct {
	K                  int
	TTN                int // total transitions of all 2^k words
	RTN                int // transitions of their optimal codes
	ImprovementPercent float64
}

// TransitionTable computes Figure 3 for block sizes 2..maxK.
func TransitionTable(maxK int, restricted bool) ([]TheoryRow, error) {
	funcs := transform.Preferred()
	if restricted {
		funcs = transform.Canonical8
	}
	var out []TheoryRow
	for k := 2; k <= maxK; k++ {
		r, err := code.TheoreticalReduction(k, funcs)
		if err != nil {
			return nil, err
		}
		out = append(out, TheoryRow{K: k, TTN: r.TTN, RTN: r.RTN, ImprovementPercent: r.Improvement})
	}
	return out, nil
}

// StreamEncoding is the result of encoding a raw bit stream with chained
// overlapping blocks — the paper's core transformation, exposed directly.
type StreamEncoding struct {
	Code        []uint8  // encoded stream, same length as the input
	Taus        []string // per-block transformation, in block order
	Before      int      // transitions in the input
	After       int      // transitions in the code
	ReductionPc float64
}

// EncodeBitStream encodes one vertical bit stream with block size k using
// the canonical transformations and the paper's greedy chaining. It is the
// simplest entry point to the technique (see examples/quickstart).
func EncodeBitStream(stream []uint8, k int) (*StreamEncoding, error) {
	if err := checkBitStream(stream, k); err != nil {
		return nil, err
	}
	ch, err := code.EncodeChain(stream, k, transform.Canonical8, code.Greedy)
	if err != nil {
		return nil, err
	}
	before := code.Chain{Code: stream}.Transitions() // transitions in the input
	se := &StreamEncoding{Code: ch.Code, Before: before, After: ch.Transitions()}
	for _, tau := range ch.Taus {
		se.Taus = append(se.Taus, tau.String())
	}
	if before > 0 {
		se.ReductionPc = 100 * float64(before-se.After) / float64(before)
	}
	return se, nil
}

// DecodeBitStream restores the original stream from an encoded one, given
// the block size and the per-block transformation names produced by
// EncodeBitStream. It is the software model of the fetch-side restore.
// It refuses what EncodeBitStream could not have produced: a block size
// outside [2, 16], bits other than 0 and 1, and a transformation count
// other than the stream's block count.
func DecodeBitStream(encoded []uint8, k int, taus []string) ([]uint8, error) {
	if err := checkBitStream(encoded, k); err != nil {
		return nil, err
	}
	if want := code.NumBlocks(len(encoded), k); len(taus) != want {
		return nil, fmt.Errorf("imtrans: %d transformations for %d blocks", len(taus), want)
	}
	all := transform.All()
	fs := make([]transform.Func, len(taus))
	for i, name := range taus {
		j := slices.IndexFunc(all, func(f transform.Func) bool { return f.String() == name })
		if j < 0 {
			return nil, fmt.Errorf("imtrans: unknown transformation %s", name)
		}
		fs[i] = all[j]
	}
	ch := code.Chain{K: k, Code: encoded, Taus: fs}
	return ch.Decode(), nil
}

// checkBitStream refuses a block size outside the encoder's range and a
// stream bit other than 0 or 1.
func checkBitStream(stream []uint8, k int) error {
	if k < 2 || k > code.MaxBlockSize {
		return fmt.Errorf("imtrans: block size %d out of range [2, %d]", k, code.MaxBlockSize)
	}
	for i, b := range stream {
		if b > 1 {
			return fmt.Errorf("imtrans: stream bit %d is %d, want 0 or 1", i, b)
		}
	}
	return nil
}

// RandomStreams reproduces the Section 6 experiment: uniformly random
// streams chain-encoded at block size k; the paper reports the mean
// reduction lands within 1% of the theoretical expectation.
type RandomStreams struct {
	Streams         int
	Length          int
	K               int
	ExpectedPercent float64
	MeanPercent     float64
	MinPercent      float64
	MaxPercent      float64
}

// RandomStreamExperiment runs the Section 6 study deterministically for a
// seed. exact selects the DP chaining ablation instead of greedy.
func RandomStreamExperiment(streams, length, k int, exact bool, seed int64) (*RandomStreams, error) {
	strat := code.Greedy
	if exact {
		strat = code.Exact
	}
	r, err := code.RandomExperiment(streams, length, k, strat, seed)
	if err != nil {
		return nil, err
	}
	return &RandomStreams{
		Streams:         r.Streams,
		Length:          r.Length,
		K:               r.K,
		ExpectedPercent: r.Expected,
		MeanPercent:     r.MeanReduction,
		MinPercent:      r.MinReduction,
		MaxPercent:      r.MaxReduction,
	}, nil
}

// HistoryRow contrasts the paper's one-bit-history codes with the
// two-bit-history generalisation the paper leaves as future work.
type HistoryRow struct {
	K            int
	H1Percent    float64 // optimal improvement with x_n = tau(x~_n, x_{n-1})
	H2Percent    float64 // with x_n = tau(x~_n, x_{n-1}, x_{n-2})
	ExtraPercent float64 // points gained by the second history bit
	H2Funcs      int     // distinct 3-input functions one h=2 table uses
}

// HistoryDepthComparison evaluates the paper's stated generalisation to
// longer history (Section 5.1) for h = 2, block sizes 3..maxK: the second
// history bit buys nothing at k <= 4 (its longer passthrough prefix eats
// the gain) and roughly 9-19 improvement points at k = 5..8, at the price
// of 8-bit selectors and a much larger gate mux — quantifying why the
// paper's h = 1 design point is the right trade.
func HistoryDepthComparison(maxK int) ([]HistoryRow, error) {
	rows, err := code.CompareHistoryDepths(maxK)
	if err != nil {
		return nil, err
	}
	out := make([]HistoryRow, len(rows))
	for i, r := range rows {
		out[i] = HistoryRow{
			K:            r.K,
			H1Percent:    r.H1.Improvement,
			H2Percent:    r.H2.Improvement,
			ExtraPercent: r.ExtraPercent,
			H2Funcs:      r.H2FuncsUsed,
		}
	}
	return out, nil
}

// MinimalSet reports the Section 5.2 subset search over block sizes 2..7.
type MinimalSet struct {
	Size    int        // cardinality of the smallest sufficient subset
	Subsets [][]string // all minimal sufficient subsets, as analytic names
}

// MinimalTransformationSet exhaustively searches all subsets of the
// 16-function space for the smallest ones matching the unrestricted
// optimum at every block size 2..7. The paper reports a unique sufficient
// set of 8; the exhaustive search sharpens this to a unique minimal set of
// 6 (y and ~y are redundant) — see EXPERIMENTS.md.
func MinimalTransformationSet() (*MinimalSet, error) {
	rep, err := code.MinimalSufficientSet([]int{2, 3, 4, 5, 6, 7})
	if err != nil {
		return nil, err
	}
	out := &MinimalSet{Size: rep.MinSize}
	for _, s := range rep.Subsets {
		names := make([]string, len(s))
		for i, f := range s {
			names[i] = f.String()
		}
		out.Subsets = append(out.Subsets, names)
	}
	return out, nil
}
