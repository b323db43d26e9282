// Package code implements the power-efficient block codes of Petrov &
// Orailoglu (DATE 2003): for a vertical bit stream split into blocks of k
// bits, it finds for each block an alternative code word with minimal
// 0<->1 transitions together with a two-input transformation tau such that
// the original block is recovered bit by bit as x_n = tau(x~_n, x_{n-1}).
//
// Conventions follow the paper. A block is a slice of stream bits in
// transmission order, b[0] first. The paper prints blocks with the first
// transmitted bit rightmost, so the "written value" of a block is the
// integer whose bit i is b[i]. The first bit of a stream is always stored
// unencoded (x~_0 = x_0); consecutive blocks overlap by exactly one bit,
// and the first decode equation of a chained block uses the *encoded*
// overlap bit as history, exactly as Section 6 of the paper specifies.
package code

import (
	"fmt"
	"math/bits"

	"imtrans/internal/transform"
)

// MaxBlockSize is the largest block size for which exhaustive per-block
// search is supported. The paper evaluates sizes up to seven; we allow a
// little headroom for ablations.
const MaxBlockSize = 16

// BlockResult describes the optimal encoding found for a single block.
type BlockResult struct {
	Code []uint8        // code bits in transmission order, Code[0] is the (fixed) first bit
	Tau  transform.Func // transformation recovering the original block
	// Transitions is the number of 0<->1 transitions within Code,
	// including the transition into Code[0] accounted by the caller's
	// chaining context (i.e. transitions between adjacent Code bits only).
	Transitions int
}

// blockValue packs block bits (transmission order) into the paper's
// written value: bit i of the result is b[i].
func blockValue(b []uint8) uint32 {
	var v uint32
	for i, bit := range b {
		v |= uint32(bit&1) << uint(i)
	}
	return v
}

// blockBits unpacks a written value into k bits in transmission order.
func blockBits(v uint32, k int) []uint8 {
	b := make([]uint8, k)
	for i := range b {
		b[i] = uint8(v>>uint(i)) & 1
	}
	return b
}

// transitionsOf counts adjacent-bit transitions of a written value of
// width k.
func transitionsOf(v uint32, k int) int {
	return bits.OnesCount32((v ^ (v >> 1)) & (1<<uint(k-1) - 1))
}

// feasible reports whether transformation f maps code word c to original
// block b, where both are written values of width k and bit 0 of c is the
// overlap/passthrough bit. The first decode equation uses the encoded bit
// c[0] as history; subsequent equations use the original bits, matching
// the paper's chained-block system. The whole system is checked
// word-parallel: the history of equation i is original bit i-1 (shifted
// original word) except equation 1, whose history is the encoded overlap
// bit — one patched shift, one gate evaluation, one compare.
func feasible(f transform.Func, c, b uint32, k int) bool {
	h := (b<<1)&^2 | (c&1)<<1
	mask := ((uint32(1) << uint(k)) - 1) &^ 1 // equations 1..k-1
	return (transform.WordEval(f, c, h)^b)&mask == 0
}

// feasibleTau returns the first transformation in funcs (in the given
// preference order) that maps code word c to original block b. It returns
// ok=false if no transformation in funcs satisfies the system.
func feasibleTau(c, b uint32, k int, funcs []transform.Func) (transform.Func, bool) {
	for _, f := range funcs {
		if feasible(f, c, b, k) {
			return f, true
		}
	}
	return 0, false
}

// candTable[k][bit0] holds all written values of width k with the given
// bit 0, ordered by (transition count ascending, written value ascending).
// This is the deterministic search order that reproduces the code-word
// choices of the paper's Figures 2 and 4. All orders up to MaxBlockSize are
// built at package initialisation by counting (about 128K words in total,
// about a millisecond), so the hot block-search loop reads an immutable
// table with no synchronisation. Each entry packs the candidate's written
// value in the low 16 bits and its transition count above candTransShift,
// so the search loop never recounts.
var candTable = buildCandTable()

// candTransShift positions a candidate's transition count above its
// written value (written values need at most MaxBlockSize = 16 bits).
const candTransShift = 16

func candValue(e uint32) uint32 { return e & (1<<candTransShift - 1) }
func candTrans(e uint32) int    { return int(e >> candTransShift) }

// buildCandTable builds every h=1 search order up to MaxBlockSize.
func buildCandTable() (t [MaxBlockSize + 1][2][]uint32) {
	for k := 1; k <= MaxBlockSize; k++ {
		for b0 := uint32(0); b0 < 2; b0++ {
			t[k][b0] = countingOrder(k, 1, b0)
		}
	}
	return t
}

// countingOrder returns every written value of width k whose low `fixed`
// bits equal low, ordered by (transition count, value) and packed as
// candTable entries. The order is a counting sort, not a comparison sort:
// one pass sizes each transition class, a prefix sum turns the sizes into
// class offsets, and a second pass in ascending value order drops each
// word into its class's next slot, which keeps value order within a
// class.
func countingOrder(k, fixed int, low uint32) []uint32 {
	step, end := uint32(1)<<uint(fixed), uint32(1)<<uint(k)
	mask := end>>1 - 1 // transitionsOf's mask, hoisted out of both passes
	class := func(v uint32) int { return bits.OnesCount32((v ^ v>>1) & mask) }
	// next[t+1] counts class t; after the prefix sum next[t] is the
	// first free slot of class t.
	var next [MaxBlockSize + 1]int
	for v := low; v < end; v += step {
		next[class(v)+1]++
	}
	for t := 1; t < len(next); t++ {
		next[t] += next[t-1]
	}
	order := make([]uint32, end>>uint(fixed))
	for v := low; v < end; v += step {
		t := class(v)
		order[next[t]] = v | uint32(t)<<candTransShift
		next[t]++
	}
	return order
}

// candidateOrder returns the precomputed search order for (k, bit0) as
// packed (value, transitions) entries — see candValue and candTrans. The
// returned slice is shared and must not be mutated.
func candidateOrder(k int, bit0 uint8) []uint32 {
	return candTable[k][bit0&1]
}

// EncodeBlock finds the minimal-transition code word for a single block.
//
// orig holds the original bits in transmission order; code bit 0 is forced
// to c0 (for the first block of a stream pass orig[0], implementing the
// x~_0 = x_0 passthrough; for chained blocks pass the previous block's last
// code bit). funcs is the allowed transformation set searched in preference
// order. The returned Transitions counts only transitions between adjacent
// code bits of this block; chaining contexts add nothing further because
// the overlap bit is shared, not repeated.
//
// EncodeBlock never fails when funcs contains transform.Identity and
// c0 == orig[0]: the original word itself is always feasible. Otherwise
// ok=false is possible (for example, an identity-only set with a flipped
// overlap bit).
//
// Ties are resolved by (transition count, position of the transformation
// in funcs, code-word written value), in that order; with funcs in the
// paper's preference order (identity first) this reproduces the exact
// code-word and transformation choices of Figures 2 and 4.
func EncodeBlock(orig []uint8, c0 uint8, funcs []transform.Func) (BlockResult, bool) {
	k := len(orig)
	if k == 0 || k > MaxBlockSize {
		return BlockResult{}, false
	}
	if k == 1 {
		return BlockResult{Code: []uint8{c0 & 1}, Tau: transform.Identity}, true
	}
	c, tau, trans, ok := encodeBlockPacked(blockValue(orig), k, c0, funcs)
	if !ok {
		return BlockResult{}, false
	}
	return BlockResult{Code: blockBits(c, k), Tau: tau, Transitions: trans}, true
}

// encodeBlockPacked is EncodeBlock on packed written values: b is the
// original block, the winning code word is returned packed, and nothing is
// allocated. This is the innermost loop of the whole encoder.
func encodeBlockPacked(b uint32, k int, c0 uint8, funcs []transform.Func) (code uint32, tau transform.Func, trans int, ok bool) {
	cands := candidateOrder(k, c0)
	bestTrans := -1
	for _, f := range funcs {
		for _, e := range cands {
			t := candTrans(e)
			if bestTrans >= 0 && t >= bestTrans {
				break // candidates are sorted; this func cannot improve
			}
			if c := candValue(e); feasible(f, c, b, k) {
				code, tau, trans = c, f, t
				bestTrans = t
				break
			}
		}
		if bestTrans == 0 {
			break
		}
	}
	return code, tau, trans, bestTrans >= 0
}

// encodeBlockPerLastBitPacked returns, for each desired final code bit
// value, the best feasible block encoding (fewest transitions, then search
// order) as packed written values. The two results may be infeasible
// independently; feas reports which are.
func encodeBlockPerLastBitPacked(b uint32, k int, c0 uint8, funcs []transform.Func) (codes [2]uint32, taus [2]transform.Func, trans [2]int, feas [2]bool) {
	if k == 1 {
		idx := c0 & 1
		codes[idx] = uint32(idx)
		taus[idx] = transform.Identity
		feas[idx] = true
		return codes, taus, trans, feas
	}
	cands := candidateOrder(k, c0)
	bestTrans := [2]int{-1, -1}
	for _, f := range funcs {
		for _, e := range cands {
			t := candTrans(e)
			c := candValue(e)
			last := uint8(c>>uint(k-1)) & 1
			if feas[last] && t >= bestTrans[last] {
				continue
			}
			if feasible(f, c, b, k) {
				codes[last], taus[last], trans[last] = c, f, t
				bestTrans[last] = t
				feas[last] = true
			}
		}
	}
	return codes, taus, trans, feas
}

// DecodeBlock restores the original block bits from a code block. code[0]
// is the overlap/passthrough bit value as stored; first reports whether
// this is the first block of its stream, in which case code[0] is itself
// the original bit 0. For chained blocks the caller must pass the already
// decoded original value of the overlap bit in origOverlap; the first
// decode equation nonetheless uses the encoded code[0] as history, per the
// paper.
func DecodeBlock(code []uint8, tau transform.Func, first bool, origOverlap uint8) []uint8 {
	k := len(code)
	if k == 0 {
		return nil
	}
	out := make([]uint8, k)
	if first {
		out[0] = code[0] & 1
	} else {
		out[0] = origOverlap & 1
	}
	h := code[0] & 1 // history for position 1 is the encoded overlap bit
	for i := 1; i < k; i++ {
		out[i] = tau.Eval(code[i]&1, h)
		h = out[i] // subsequent history is the decoded original bit
	}
	return out
}

// Strategy selects how a chain of overlapping blocks is encoded.
type Strategy int

const (
	// Greedy encodes blocks left to right, picking the locally optimal
	// code word for each block. This is the paper's iterative approach;
	// Section 6 reports it lands within 1% of the theoretical optimum on
	// random streams.
	Greedy Strategy = iota
	// Exact runs a dynamic program over the one-bit overlap state (the
	// only coupling between adjacent blocks) and returns the globally
	// minimal-transition chain. Used as an ablation against Greedy.
	Exact
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Chain is the encoded form of one vertical bit stream: the code bits (same
// length as the original stream) plus the per-block transformation indices
// that the fetch-side hardware needs to restore the original.
type Chain struct {
	K    int              // block size used
	Code []uint8          // encoded stream, transmission order
	Taus []transform.Func // one transformation per block, in block order
}

// NumBlocks returns the number of k-bit (possibly tail-truncated) blocks a
// stream of n bits splits into under one-bit overlap. A stream of 0 or 1
// bits needs no blocks.
func NumBlocks(n, k int) int {
	if n < 2 || k < 2 {
		return 0
	}
	return (n - 2 + (k - 1)) / (k - 1) // ceil((n-1)/(k-1))
}

// EncodeChain encodes a full vertical stream with block size k and the
// allowed transformation set funcs, using the given strategy. Streams
// shorter than two bits are stored unchanged with no transformations.
//
// The worst-case guarantee of the paper holds whenever funcs contains the
// identity: the returned code never has more transitions than the original
// stream.
func EncodeChain(stream []uint8, k int, funcs []transform.Func, strat Strategy) (Chain, error) {
	n := len(stream)
	if k < 2 || k > MaxBlockSize {
		return Chain{}, fmt.Errorf("code: block size %d out of range [2,%d]", k, MaxBlockSize)
	}
	ch := Chain{K: k, Code: make([]uint8, n)}
	copy(ch.Code, stream)
	if n < 2 {
		return ch, nil
	}
	switch strat {
	case Greedy:
		return encodeChainGreedy(ch, stream, k, funcs)
	case Exact:
		return encodeChainExact(ch, stream, k, funcs)
	default:
		return Chain{}, fmt.Errorf("code: unknown strategy %d", int(strat))
	}
}

// writeBlockBits unpacks a written value into dst in transmission order —
// the only point where a winning packed code word is expanded to bits.
func writeBlockBits(dst []uint8, v uint32) {
	for i := range dst {
		dst[i] = uint8(v>>uint(i)) & 1
	}
}

func encodeChainGreedy(ch Chain, stream []uint8, k int, funcs []transform.Func) (Chain, error) {
	n := len(stream)
	ch.Code[0] = stream[0] & 1
	if nb := NumBlocks(n, k); cap(ch.Taus)-len(ch.Taus) < nb {
		ch.Taus = make([]transform.Func, 0, nb)
	}
	for p := 0; p < n-1; p += k - 1 {
		end := p + k
		if end > n {
			end = n
		}
		c, tau, _, ok := encodeBlockPacked(blockValue(stream[p:end]), end-p, ch.Code[p], funcs)
		if !ok {
			return Chain{}, fmt.Errorf("code: no feasible transformation for block at offset %d", p)
		}
		writeBlockBits(ch.Code[p:end], c)
		ch.Taus = append(ch.Taus, tau)
	}
	return ch, nil
}

func encodeChainExact(ch Chain, stream []uint8, k int, funcs []transform.Func) (Chain, error) {
	n := len(stream)
	type choice struct {
		code uint32 // packed code word of this block
		tau  transform.Func
		prev uint8 // overlap-state value this choice extends
	}
	// starts[m] is the stream offset of block m's overlap bit.
	var starts []int
	for p := 0; p < n-1; p += k - 1 {
		starts = append(starts, p)
	}
	const inf = int(^uint(0) >> 1)
	// cost[s]: minimal transitions of a prefix ending with overlap code
	// bit value s. Block 1's first bit is forced to the original.
	cost := [2]int{inf, inf}
	cost[stream[0]&1] = 0
	back := make([][2]choice, len(starts))
	feasState := [2]bool{}
	feasState[stream[0]&1] = true
	for m, p := range starts {
		end := p + k
		if end > n {
			end = n
		}
		b := blockValue(stream[p:end])
		nextCost := [2]int{inf, inf}
		var nextFeas [2]bool
		var nextBack [2]choice
		for s := uint8(0); s < 2; s++ {
			if !feasState[s] {
				continue
			}
			codes, taus, trans, feas := encodeBlockPerLastBitPacked(b, end-p, s, funcs)
			for last := uint8(0); last < 2; last++ {
				if !feas[last] {
					continue
				}
				c := cost[s] + trans[last]
				if c < nextCost[last] {
					nextCost[last] = c
					nextFeas[last] = true
					nextBack[last] = choice{code: codes[last], tau: taus[last], prev: s}
				}
			}
		}
		cost, feasState, back[m] = nextCost, nextFeas, nextBack
	}
	// Pick the cheaper terminal state and walk back.
	final := uint8(0)
	switch {
	case feasState[0] && (!feasState[1] || cost[0] <= cost[1]):
		final = 0
	case feasState[1]:
		final = 1
	default:
		return Chain{}, fmt.Errorf("code: no feasible chain encoding")
	}
	ch.Taus = make([]transform.Func, len(starts))
	s := final
	for m := len(starts) - 1; m >= 0; m-- {
		cho := back[m][s]
		p := starts[m]
		end := p + k
		if end > n {
			end = n
		}
		writeBlockBits(ch.Code[p:end], cho.code)
		ch.Taus[m] = cho.tau
		s = cho.prev
	}
	return ch, nil
}

// Decode restores the original stream from an encoded chain. It is the
// software model of the fetch-side decoder: one pass, one gate evaluation
// per bit, single-bit history.
func (c Chain) Decode() []uint8 {
	n := len(c.Code)
	out := make([]uint8, n)
	copy(out, c.Code)
	if n < 2 || len(c.Taus) == 0 {
		return out
	}
	k := c.K
	block := 0
	out[0] = c.Code[0] & 1
	for p := 0; p < n-1; p += k - 1 {
		end := p + k
		if end > n {
			end = n
		}
		tau := c.Taus[block]
		h := c.Code[p] & 1 // encoded overlap bit is the first history
		for i := p + 1; i < end; i++ {
			out[i] = tau.Eval(c.Code[i]&1, h)
			h = out[i]
		}
		block++
	}
	return out
}

// Transitions returns the transition count of the encoded stream.
func (c Chain) Transitions() int {
	t := 0
	for i := 1; i < len(c.Code); i++ {
		if c.Code[i]&1 != c.Code[i-1]&1 {
			t++
		}
	}
	return t
}
