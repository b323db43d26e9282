package code

import (
	"fmt"
	"math/rand"

	"imtrans/internal/transform"
)

// TableRow is one row of the paper's code tables (Figures 2 and 4): an
// original block word, its power-efficient code word, the transformation
// mapping the code back to the original, and the two transition counts.
type TableRow struct {
	Value       uint32         // written value of the original block word
	Word        string         // original bits, paper notation (first bit rightmost)
	CodeWord    string         // encoded bits, paper notation
	Tau         transform.Func // recovering transformation
	Transitions int            // T_x: transitions in the original word
	CodeTrans   int            // T_x~: transitions in the code word
}

// MaxTableBlockSize bounds the exhaustive-table functions (OptimalTable,
// TheoreticalReduction): they enumerate all 2^k words and, per word, all
// 2^(k-1) candidate codes, so the cost grows as 4^k.
const MaxTableBlockSize = 10

// OptimalTable computes the optimal standalone-block encoding of every
// k-bit word under the given transformation set, in written-value order.
// With the full 16-function space it reproduces Figure 2 (k=3); with
// transform.Canonical8 it reproduces Figure 4 (k=5).
func OptimalTable(k int, funcs []transform.Func) ([]TableRow, error) {
	if k < 2 || k > MaxTableBlockSize {
		return nil, fmt.Errorf("code: block size %d out of exhaustive-table range [2,%d]", k, MaxTableBlockSize)
	}
	rows := make([]TableRow, 0, 1<<uint(k))
	for v := uint32(0); v < 1<<uint(k); v++ {
		orig := blockBits(v, k)
		res, ok := EncodeBlock(orig, orig[0], funcs)
		if !ok {
			return nil, fmt.Errorf("code: word %0*b has no feasible encoding", k, v)
		}
		rows = append(rows, TableRow{
			Value:       v,
			Word:        writtenString(v, k),
			CodeWord:    writtenString(blockValue(res.Code), k),
			Tau:         res.Tau,
			Transitions: transitionsOf(v, k),
			CodeTrans:   res.Transitions,
		})
	}
	return rows, nil
}

func writtenString(v uint32, k int) string {
	b := make([]byte, k)
	for i := 0; i < k; i++ {
		b[k-1-i] = '0' + byte(v>>uint(i))&1
	}
	return string(b)
}

// Reduction summarises Figure 3 for one block size: the total transition
// number over all 2^k words (TTN), the reduced transition number of their
// optimal codes (RTN), and the percentage improvement. Because every word
// is counted once, the improvement equals the expected transition reduction
// on a uniformly distributed bit stream.
type Reduction struct {
	K           int
	TTN         int
	RTN         int
	Improvement float64 // percent
}

// TheoreticalReduction computes the Figure 3 row for block size k under the
// given transformation set.
func TheoreticalReduction(k int, funcs []transform.Func) (Reduction, error) {
	rows, err := OptimalTable(k, funcs)
	if err != nil {
		return Reduction{}, err
	}
	r := Reduction{K: k}
	for _, row := range rows {
		r.TTN += row.Transitions
		r.RTN += row.CodeTrans
	}
	if r.TTN > 0 {
		r.Improvement = 100 * float64(r.TTN-r.RTN) / float64(r.TTN)
	}
	return r, nil
}

// bestTransPerFunc computes, for every k-bit word and every one of the 16
// transformations, the minimal code-word transition count achievable with
// that transformation alone (or -1 if infeasible). It is the kernel of the
// minimal-subset search.
func bestTransPerFunc(k int) [][transform.NumFuncs]int {
	table := make([][transform.NumFuncs]int, 1<<uint(k))
	for v := range table {
		for f := 0; f < transform.NumFuncs; f++ {
			table[v][f] = -1
		}
		b := uint32(v)
		for _, e := range candidateOrder(k, uint8(b)&1) {
			c, t := candValue(e), candTrans(e)
			for f := 0; f < transform.NumFuncs; f++ {
				if table[v][f] >= 0 {
					continue
				}
				if tau, ok := feasibleTau(c, b, k, []transform.Func{transform.Func(f)}); ok && tau == transform.Func(f) {
					table[v][f] = t
				}
			}
		}
	}
	return table
}

// SubsetReport is the outcome of the Section 5.2 search for the smallest
// transformation subset that matches the unrestricted (16-function) global
// optimum at every block size in ks.
type SubsetReport struct {
	Sizes      []int              // block sizes covered by the search
	OptimalRTN map[int]int        // unrestricted optimum per block size
	MinSize    int                // cardinality of the smallest sufficient subset
	Subsets    [][]transform.Func // all sufficient subsets of MinSize, sorted
}

// MinimalSufficientSet searches all subsets of the 16-function space for
// the smallest ones whose restricted optimum equals the global optimum for
// every block size in ks. The paper reports a unique sufficient subset of
// size 8 for sizes 2..7; this function verifies that claim exhaustively.
func MinimalSufficientSet(ks []int) (SubsetReport, error) {
	rep := SubsetReport{Sizes: append([]int(nil), ks...), OptimalRTN: map[int]int{}}
	tables := map[int][][transform.NumFuncs]int{}
	for _, k := range ks {
		if k < 2 || k > 12 {
			return rep, fmt.Errorf("code: block size %d out of searchable range", k)
		}
		tables[k] = bestTransPerFunc(k)
		opt, err := TheoreticalReduction(k, transform.All())
		if err != nil {
			return rep, err
		}
		rep.OptimalRTN[k] = opt.RTN
	}
	sufficient := func(mask uint16) bool {
		for _, k := range ks {
			table := tables[k]
			rtn := 0
			for v := range table {
				best := -1
				for f := 0; f < transform.NumFuncs; f++ {
					if mask&(1<<uint(f)) == 0 {
						continue
					}
					if t := table[v][f]; t >= 0 && (best < 0 || t < best) {
						best = t
					}
				}
				if best < 0 {
					return false // some word has no feasible code at all
				}
				rtn += best
			}
			if rtn != rep.OptimalRTN[k] {
				return false
			}
		}
		return true
	}
	for size := 1; size <= transform.NumFuncs; size++ {
		var found [][]transform.Func
		for mask := uint16(0); ; mask++ {
			if popcount16(mask) == size && sufficient(mask) {
				found = append(found, maskToFuncs(mask))
			}
			if mask == 0xffff {
				break
			}
		}
		if len(found) > 0 {
			rep.MinSize = size
			rep.Subsets = found
			return rep, nil
		}
	}
	return rep, fmt.Errorf("code: no sufficient subset found (impossible: full set is sufficient)")
}

func popcount16(m uint16) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func maskToFuncs(mask uint16) []transform.Func {
	var fs []transform.Func
	for f := 0; f < transform.NumFuncs; f++ {
		if mask&(1<<uint(f)) != 0 {
			fs = append(fs, transform.Func(f))
		}
	}
	return fs
}

// RandomResult summarises the Section 6 experiment: encoding uniformly
// random streams with chained overlapping blocks and comparing the measured
// reduction against the theoretical expectation for the block size.
type RandomResult struct {
	Streams       int     // number of random streams encoded
	Length        int     // bits per stream
	K             int     // block size
	Expected      float64 // theoretical reduction for uniform input, percent
	MeanReduction float64 // measured mean reduction, percent
	MinReduction  float64
	MaxReduction  float64
}

// RandomExperiment reproduces the Section 6 study: streams of length bits
// drawn uniformly at random are chain-encoded with block size k and the
// canonical transformation set; the paper reports that for k=5 the total
// reduction is within 1% of the expected 50%. The experiment is
// deterministic for a given seed.
func RandomExperiment(streams, length, k int, strat Strategy, seed int64) (RandomResult, error) {
	exp, err := TheoreticalReduction(k, transform.Canonical8)
	if err != nil {
		return RandomResult{}, err
	}
	res := RandomResult{
		Streams:      streams,
		Length:       length,
		K:            k,
		Expected:     exp.Improvement,
		MinReduction: 200,
		MaxReduction: -200,
	}
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for s := 0; s < streams; s++ {
		stream := make([]uint8, length)
		for i := range stream {
			stream[i] = uint8(rng.Intn(2))
		}
		ch, err := EncodeChain(stream, k, transform.Canonical8, strat)
		if err != nil {
			return RandomResult{}, err
		}
		orig := 0
		for i := 1; i < length; i++ {
			if stream[i] != stream[i-1] {
				orig++
			}
		}
		red := 0.0
		if orig > 0 {
			red = 100 * float64(orig-ch.Transitions()) / float64(orig)
		}
		sum += red
		if red < res.MinReduction {
			res.MinReduction = red
		}
		if red > res.MaxReduction {
			res.MaxReduction = red
		}
	}
	if streams > 0 {
		res.MeanReduction = sum / float64(streams)
	}
	return res, nil
}
