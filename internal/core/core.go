// Package core assembles the paper's contribution end-to-end: given a
// program, its control-flow graph and an execution profile, it selects the
// hottest basic blocks under the Transformation Table budget, encodes each
// block's vertical bit streams with the power-efficient functional
// transformations, and produces the encoded memory image plus the per-block
// transformation plans that parameterise the fetch-side decoder hardware.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"imtrans/internal/bitline"
	"imtrans/internal/cfg"
	"imtrans/internal/code"
	"imtrans/internal/transform"
)

// Selection chooses how basic blocks compete for Transformation Table
// capacity.
type Selection int

const (
	// HeatGreedy admits blocks hottest-first while they fit — the
	// paper's implicit policy (cover the major loop, skip cold blocks).
	HeatGreedy Selection = iota
	// Knapsack solves the TT allocation exactly: blocks are items whose
	// weight is their TT entry count and whose value is the estimated
	// dynamic transition saving (per-execution static saving times
	// execution count), subject to both the TT and BBIT capacities.
	Knapsack
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case HeatGreedy:
		return "heat-greedy"
	case Knapsack:
		return "knapsack"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Config parameterises an encoding run. The zero value is completed by
// defaults matching the paper's evaluation: block size 5, a 16-entry TT,
// the canonical 8 transformations, greedy chaining, heat-greedy block
// selection, a 32-bit bus.
type Config struct {
	BlockSize   int              // k, bits per encoded block (2..16)
	TTEntries   int              // transformation-table capacity
	BBITEntries int              // max basic blocks covered (BBIT capacity)
	Funcs       []transform.Func // allowed transformation set
	Strategy    code.Strategy    // chain-encoding strategy
	Selection   Selection        // TT allocation policy
	BusWidth    int              // instruction bus width in lines
}

// Defaults used for zero Config fields.
const (
	DefaultBlockSize   = 5
	DefaultTTEntries   = 16
	DefaultBBITEntries = 16
	DefaultBusWidth    = 32
)

// WithDefaults returns c with zero fields replaced by the paper's values.
func (c Config) WithDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.TTEntries == 0 {
		c.TTEntries = DefaultTTEntries
	}
	if c.BBITEntries == 0 {
		c.BBITEntries = DefaultBBITEntries
	}
	if c.Funcs == nil {
		c.Funcs = transform.Canonical8
	}
	if c.BusWidth == 0 {
		c.BusWidth = DefaultBusWidth
	}
	return c
}

func (c Config) validate() error {
	if c.BlockSize < 2 || c.BlockSize > code.MaxBlockSize {
		return fmt.Errorf("core: block size %d out of range [2,%d]", c.BlockSize, code.MaxBlockSize)
	}
	if c.TTEntries < 1 {
		return fmt.Errorf("core: TT needs at least one entry")
	}
	if c.BBITEntries < 1 {
		return fmt.Errorf("core: BBIT needs at least one entry")
	}
	if c.BusWidth < 1 || c.BusWidth > 32 {
		return fmt.Errorf("core: bus width %d out of range [1,32]", c.BusWidth)
	}
	if len(c.Funcs) == 0 {
		return fmt.Errorf("core: empty transformation set")
	}
	return nil
}

// Plan is the encoding decision for one covered basic block: which TT
// entries it owns and which transformation each entry selects per bus line.
// Plans selected from a CandidateSet share their Taus and Encoded slices
// with the set and with every other Encoding built from it, so neither
// may be written.
type Plan struct {
	Block   int    // cfg block index
	StartPC uint32 // first instruction address
	Count   int    // instructions in the block
	Heat    uint64 // dynamic instructions contributed (profile)

	TTStart int // first TT entry allocated to this block
	TTCount int // entries used (= chain blocks per line)
	TailCT  int // instructions decoded under the last entry (the CT field)

	// Taus[e][line] is the transformation of chain block e on the given
	// bus line.
	Taus [][]transform.Func

	// Encoded holds the block's instruction words as stored in program
	// memory after encoding.
	Encoded []uint32

	// OrigTransitions and CodeTransitions count the vertical bit
	// transitions of the block before and after encoding (static view).
	OrigTransitions int
	CodeTransitions int
}

// Encoding is the result of planning a whole program.
type Encoding struct {
	Config Config
	Graph  *cfg.Graph

	Plans        []Plan
	EncodedWords []uint32 // full text image with covered blocks replaced

	TTUsed         int // TT entries consumed
	CoveredDynamic uint64
	TotalDynamic   uint64
	StaticOriginal int // vertical transitions in covered blocks, before
	StaticEncoded  int // and after encoding
	SkippedByTT    int // hot blocks skipped for lack of TT space
	SkippedByBBIT  int // hot blocks skipped for lack of BBIT space
	planByBlockIdx map[int]int
}

// EncodeOpts tunes one encode call without changing its results. The
// zero value matches EncodeCtx: the process-wide chain-table cache,
// pooled scratch.
type EncodeOpts struct {
	// Deprecated: Workers is ignored. Every encode runs its bit lines in
	// one serial loop; the field stays for source compatibility.
	Workers int

	// Tables overrides the chain-table cache; nil means code.SharedTables.
	Tables *code.TableCache

	// Arena, when non-nil, supplies this call's block-encoding scratch
	// instead of the shared pool — one arena per sweep worker keeps the
	// hot buffers CPU-local across grid cells.
	Arena *Arena

	// Candidates, when non-nil, supplies the candidate plans selection
	// chooses from: the first encode handed the set builds them and
	// every later one reuses them, so the Taus and Encoded slices of the
	// resulting Plans are shared and must not be written. A set built
	// for another graph, profile or per-block signature is refused with
	// an error. Nil builds a private list.
	Candidates *CandidateSet
}

// Arena is a caller-owned scratch allocation for Encode calls. An Arena
// must not be used by two encodes concurrently.
type Arena struct {
	sc encScratch
}

// Encode plans the power encoding of the program described by g, using the
// per-instruction execution profile to rank basic blocks (hottest first).
// Blocks are admitted while both TT and BBIT capacity remain; a block too
// large for the remaining TT entries is skipped but smaller ones may still
// fit, mirroring the paper's advice to leave infrequent blocks unencoded.
func Encode(g *cfg.Graph, profile []uint64, c Config) (*Encoding, error) {
	return EncodeCtx(context.Background(), g, profile, c)
}

// EncodeCtx is Encode with cooperative cancellation: the context is
// checked before each candidate block and before every bit line of a
// block, so a cancelled sweep stops mid-plan instead of finishing a large
// block. A cancelled encode returns ctx.Err(), unwrapped, and no partial
// Encoding.
func EncodeCtx(ctx context.Context, g *cfg.Graph, profile []uint64, c Config) (*Encoding, error) {
	return EncodeCtxOpts(ctx, g, profile, c, EncodeOpts{})
}

// EncodeCtxOpts is EncodeCtx with per-call tuning. Results are
// bit-identical for every opts value; only wall time and allocation
// behaviour change. The one exception is a Candidates set built for
// another graph, profile or signature, which is refused with an error.
func EncodeCtxOpts(ctx context.Context, g *cfg.Graph, profile []uint64, c Config, opts EncodeOpts) (*Encoding, error) {
	c = c.WithDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(profile) != len(g.Words) {
		return nil, fmt.Errorf("core: profile length %d != program length %d", len(profile), len(g.Words))
	}
	enc := &Encoding{
		Config:         c,
		Graph:          g,
		EncodedWords:   append([]uint32(nil), g.Words...),
		planByBlockIdx: make(map[int]int),
	}
	for _, n := range profile {
		enc.TotalDynamic += n
	}
	cands, err := opts.Candidates.get(ctx, g, profile, c, opts)
	if err != nil {
		return nil, err
	}
	var chosen []bool
	switch c.Selection {
	case HeatGreedy:
		chosen = selectGreedy(cands, c, enc)
	case Knapsack:
		chosen, err = selectKnapsack(cands, c)
		if err != nil {
			return nil, err
		}
		for i := range cands {
			if !chosen[i] {
				enc.SkippedByTT++
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown selection policy %d", int(c.Selection))
	}
	for i := range cands {
		if !chosen[i] {
			continue
		}
		plan := cands[i]
		plan.TTStart = enc.TTUsed
		enc.TTUsed += plan.TTCount
		enc.CoveredDynamic += plan.Heat
		enc.StaticOriginal += plan.OrigTransitions
		enc.StaticEncoded += plan.CodeTransitions
		start := int(plan.StartPC-g.Base) / 4
		copy(enc.EncodedWords[start:start+plan.Count], plan.Encoded)
		enc.planByBlockIdx[plan.Block] = len(enc.Plans)
		enc.Plans = append(enc.Plans, plan)
	}
	return enc, nil
}

// CandidateSet holds one program's candidate plans under one per-block
// signature (BlockSize, Funcs, Strategy, BusWidth). A candidate is a warm
// block encoded on its own, and the encoding of a block depends only on
// its words and that signature: the TT/BBIT capacities and the selection
// policy just decide which candidates an Encoding admits. Every encode of
// one graph and profile under one signature can therefore select from
// one list, and a grid sweep builds it once per (program, signature)
// instead of once per cell.
//
// The first encode handed the set builds the list while holding the
// set's lock, so concurrent encodes wait for it instead of building
// their own. A build that fails or is cancelled leaves the set empty and
// the next encode builds again. An encode whose graph, profile or
// signature differs from the list's is refused with an error. The zero
// value is an empty set; it is safe for concurrent use.
type CandidateSet struct {
	mu      sync.Mutex
	built   bool
	graph   *cfg.Graph
	profile []uint64
	sig     Config
	plans   []Plan
}

// Built reports whether the set holds a candidate list.
func (s *CandidateSet) Built() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.built
}

// get returns the candidate list of (g, profile, c), building it on first
// use. A nil set builds a private list on every call.
func (s *CandidateSet) get(ctx context.Context, g *cfg.Graph, profile []uint64, c Config, opts EncodeOpts) ([]Plan, error) {
	if s == nil {
		return buildCandidates(ctx, g, profile, c, opts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		plans, err := buildCandidates(ctx, g, profile, c, opts)
		if err != nil {
			return nil, err
		}
		s.built, s.graph, s.profile, s.plans = true, g, profile, plans
		s.sig = Config{BlockSize: c.BlockSize, Funcs: slices.Clone(c.Funcs), Strategy: c.Strategy, BusWidth: c.BusWidth}
		return plans, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err // cancelled encodes fail whether or not they build
	}
	if s.graph != g || len(s.profile) != len(profile) || (len(profile) > 0 && &s.profile[0] != &profile[0]) {
		return nil, fmt.Errorf("core: candidate set was built for another program or profile")
	}
	if s.sig.BlockSize != c.BlockSize || s.sig.Strategy != c.Strategy ||
		s.sig.BusWidth != c.BusWidth || !slices.Equal(s.sig.Funcs, c.Funcs) {
		return nil, fmt.Errorf("core: candidate set was built for another signature (k=%d, %d funcs, %v, bus %d; want k=%d, %d funcs, %v, bus %d)",
			s.sig.BlockSize, len(s.sig.Funcs), s.sig.Strategy, s.sig.BusWidth,
			c.BlockSize, len(c.Funcs), c.Strategy, c.BusWidth)
	}
	return s.plans, nil
}

// buildCandidates encodes every warm multi-instruction block of g as a
// candidate, in heat order; selection then decides which ones the tables
// can afford.
func buildCandidates(ctx context.Context, g *cfg.Graph, profile []uint64, c Config, opts EncodeOpts) ([]Plan, error) {
	// One precomputed block table serves every candidate block and line;
	// the cache shares it across every encode with the same signature, so
	// a grid sweep builds it once instead of once per cell.
	tables := opts.Tables
	if tables == nil {
		tables = code.SharedTables
	}
	tab, err := tables.Get(c.BlockSize, c.Funcs, c.Strategy)
	if err != nil {
		return nil, err
	}
	heat := g.BlockHeat(profile)
	hot := g.HotBlocks(profile)
	cands := make([]Plan, 0, len(hot))
	for _, bi := range hot {
		if g.Blocks[bi].Count < 2 {
			continue // a single instruction has no vertical transitions
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := encodeBlock(ctx, g, bi, c, tab, opts.Arena)
		if err != nil {
			return nil, err
		}
		plan.Heat = heat[bi]
		cands = append(cands, plan)
	}
	return cands, nil
}

// selectGreedy admits candidates (already in heat order) while both
// capacities hold, recording why blocks were skipped.
func selectGreedy(cands []Plan, c Config, enc *Encoding) []bool {
	chosen := make([]bool, len(cands))
	used, blocks := 0, 0
	for i := range cands {
		if blocks >= c.BBITEntries {
			enc.SkippedByBBIT++
			continue
		}
		if used+cands[i].TTCount > c.TTEntries {
			enc.SkippedByTT++
			continue
		}
		chosen[i] = true
		used += cands[i].TTCount
		blocks++
	}
	return chosen
}

// selectKnapsack maximises the estimated dynamic transition saving —
// (static saving per pass) x (passes) — subject to the TT capacity and
// the BBIT cardinality, by exact dynamic programming.
func selectKnapsack(cands []Plan, c Config) ([]bool, error) {
	n := len(cands)
	w := c.TTEntries
	m := c.BBITEntries
	if m > n {
		m = n
	}
	cells := (w + 1) * (m + 1)
	if n*cells > 50_000_000 {
		return nil, fmt.Errorf("core: knapsack instance too large (%d blocks, TT %d, BBIT %d)", n, w, m)
	}
	// prev[j*(m+1)+b] is the best value over the items before i with j TT
	// entries and b blocks used; cur is the same with item i. Bit
	// i*cells+j*(m+1)+b of take records that item i improved that cell,
	// which is all the walk back needs: two value rows and n bits per
	// cell instead of n+1 value rows.
	prev := make([]float64, cells)
	cur := make([]float64, cells)
	take := make([]uint64, (n*cells+63)/64)
	for i := range cands {
		copy(cur, prev)
		wi := cands[i].TTCount
		vi := knapsackValue(&cands[i])
		row := i * cells
		for j := wi; j <= w; j++ {
			for b := 1; b <= m; b++ {
				cell := j*(m+1) + b
				if cand := prev[(j-wi)*(m+1)+b-1] + vi; cand > cur[cell] {
					cur[cell] = cand
					take[(row+cell)/64] |= 1 << uint((row+cell)%64)
				}
			}
		}
		prev, cur = cur, prev
	}
	// Best terminal cell, then walk the take bits backwards.
	best := 0
	for cell := range prev {
		if prev[cell] > prev[best] {
			best = cell
		}
	}
	chosen := make([]bool, n)
	j, b := best/(m+1), best%(m+1)
	for i := n - 1; i >= 0; i-- {
		bit := i*cells + j*(m+1) + b
		if take[bit/64]&(1<<uint(bit%64)) == 0 {
			continue // item i not taken on the optimal path
		}
		chosen[i] = true
		j -= cands[i].TTCount
		b--
	}
	return chosen, nil
}

// knapsackValue is a candidate's knapsack value: its estimated dynamic
// transition saving.
func knapsackValue(p *Plan) float64 {
	passes := float64(p.Heat) / float64(p.Count)
	return passes * float64(p.OrigTransitions-p.CodeTransitions)
}

// encScratch is the reusable working set of one encodeBlock call: the
// packed source and destination matrices plus one line's tau buffer.
// Pooled so a warm Encode allocates only its outputs (the plan's tau
// table and encoded image), never its scratch.
type encScratch struct {
	src, dst bitline.Matrix
	taus     []transform.Func
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// encodeBlock encodes every vertical bit stream of one basic block, in
// packed form: the block's words transpose into 32 uint64 lanes once, the
// per-line chain encoders run directly on the lanes, and the encoded
// image transposes back out. Lanes at or above the modelled bus width are
// packed but not encoded, which preserves out-of-model bits verbatim.
// arena (optional) replaces the pooled scratch with caller-owned buffers.
func encodeBlock(ctx context.Context, g *cfg.Graph, bi int, c Config, tab *code.ChainTable, arena *Arena) (Plan, error) {
	b := g.Blocks[bi]
	words := g.Instructions(bi)
	k := c.BlockSize
	plan := Plan{
		Block:   bi,
		StartPC: b.Start,
		Count:   b.Count,
		TTCount: code.NumBlocks(b.Count, k),
	}
	plan.TailCT = (b.Count - 1) - (plan.TTCount-1)*(k-1)
	if plan.TailCT <= 0 {
		plan.TailCT = k - 1 // full-length tail
	}
	nb := plan.TTCount
	var sc *encScratch
	if arena != nil {
		sc = &arena.sc
	} else {
		sc = encScratchPool.Get().(*encScratch)
		defer encScratchPool.Put(sc)
	}
	sc.src.Pack(words)
	sc.dst.CopyFrom(&sc.src)
	if cap(sc.taus) < nb {
		sc.taus = make([]transform.Func, 0, nb)
	}
	// Plan outputs: one flat backing for the whole tau table (entry-major
	// rows into it), one image slice.
	flat := make([]transform.Func, nb*c.BusWidth)
	plan.Taus = make([][]transform.Func, nb)
	for e := range plan.Taus {
		plan.Taus[e] = flat[e*c.BusWidth : (e+1)*c.BusWidth]
	}
	// The vertical lanes are independent and encode one after another, in
	// line order, so the first failing line is the one reported.
	for line := 0; line < c.BusWidth; line++ {
		if err := ctx.Err(); err != nil {
			return Plan{}, err
		}
		srcLane := sc.src.Lane(line)
		dstLane := sc.dst.Lane(line)
		taus, err := tab.AppendChain(dstLane, srcLane, c.Funcs, sc.taus[:0])
		if err != nil {
			return Plan{}, fmt.Errorf("core: block %d line %d: %w", bi, line, err)
		}
		if len(taus) != nb {
			return Plan{}, fmt.Errorf("core: block %d line %d: %d chain blocks, want %d",
				bi, line, len(taus), nb)
		}
		for e, tau := range taus {
			flat[e*c.BusWidth+line] = tau
		}
		plan.OrigTransitions += srcLane.Transitions()
		plan.CodeTransitions += dstLane.Transitions()
	}
	// A cancellation during the last line's chain must not return a plan.
	if err := ctx.Err(); err != nil {
		return Plan{}, err
	}
	plan.Encoded = make([]uint32, len(words))
	sc.dst.Unpack(plan.Encoded)
	return plan, nil
}

// PlanForPC returns the plan of the covered basic block starting at pc.
func (e *Encoding) PlanForPC(pc uint32) (*Plan, bool) {
	bi, ok := e.Graph.BlockAt(pc)
	if !ok {
		return nil, false
	}
	return e.PlanForBlock(bi)
}

// PlanForBlock returns the plan covering cfg block bi, if any.
func (e *Encoding) PlanForBlock(bi int) (*Plan, bool) {
	pi, ok := e.planByBlockIdx[bi]
	if !ok {
		return nil, false
	}
	return &e.Plans[pi], true
}

// StaticReduction returns the percentage reduction of vertical transitions
// across covered blocks (the static, layout-order view; the dynamic fetch
// stream is measured by the hw decoder pipeline).
func (e *Encoding) StaticReduction() float64 {
	if e.StaticOriginal == 0 {
		return 0
	}
	return 100 * float64(e.StaticOriginal-e.StaticEncoded) / float64(e.StaticOriginal)
}

// Coverage returns the fraction of dynamic instructions fetched from
// covered blocks, in percent.
func (e *Encoding) Coverage() float64 {
	if e.TotalDynamic == 0 {
		return 0
	}
	return 100 * float64(e.CoveredDynamic) / float64(e.TotalDynamic)
}

// Verify statically decodes every covered block with the plan's
// transformations and checks the original instruction words are recovered
// exactly. It is the software proof that the stored image plus the TT
// contents reproduce the program. The decode runs word-parallel: each
// entry's per-line transformations group into per-gate masks, so one
// instruction costs a handful of word-wide gate evaluations instead of
// one stream walk per bus line — the same datapath shape as the hw
// decoder model, derived independently from the plan.
func (e *Encoding) Verify() error {
	k := e.Config.BlockSize
	width := e.Config.BusWidth
	wmask := ^uint32(0)
	if width < 32 {
		wmask = (uint32(1) << uint(width)) - 1
	}
	for pi := range e.Plans {
		p := &e.Plans[pi]
		orig := e.Graph.Instructions(p.Block)
		encw := p.Encoded
		// The block's first word is the x~_0 = x_0 passthrough.
		if diff := (encw[0] ^ orig[0]) & wmask; diff != 0 {
			return fmt.Errorf("core: block %d line %d instr 0: decode mismatch",
				p.Block, bits.TrailingZeros32(diff))
		}
		var masks [transform.NumFuncs]uint32
		entry := -1
		prevEnc, prevDec := encw[0], encw[0]
		for i := 1; i < p.Count; i++ {
			if en := (i - 1) / (k - 1); en != entry {
				entry = en
				masks = [transform.NumFuncs]uint32{}
				for line := 0; line < width; line++ {
					masks[p.Taus[entry][line]&0xf] |= uint32(1) << uint(line)
				}
			}
			hist := prevDec
			if (i-1)%(k-1) == 0 {
				// First equation of a chain block uses the encoded
				// overlap bit as history (paper, Section 6).
				hist = prevEnc
			}
			var dec uint32
			for fn, m := range masks {
				if m != 0 {
					dec |= transform.WordEval(transform.Func(fn), encw[i], hist) & m
				}
			}
			if diff := (dec ^ orig[i]) & wmask; diff != 0 {
				return fmt.Errorf("core: block %d line %d instr %d: decode mismatch",
					p.Block, bits.TrailingZeros32(diff), i)
			}
			prevEnc, prevDec = encw[i], dec
		}
	}
	return nil
}
