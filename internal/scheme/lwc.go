package scheme

import (
	"context"
	"fmt"
	"math/bits"
)

// lwcScheme implements a limited-weight code over transition signaling,
// after Valentini & Chiani ("An Implementation of the Optimal Scheme for
// Energy Efficient Bus Encoding"): the bus is widened by ExtraLines
// redundant lines to n = 32 + ExtraLines, and each word w is assigned an
// n-bit *difference* codeword c(w); a transfer drives bus_t = bus_{t-1}
// XOR c(w_t), so the transition count of the transfer is exactly the
// Hamming weight of c(w_t). Difference codewords are enumerated in
// increasing weight (the limited-weight-code construction) and assigned
// to words by decreasing dynamic frequency — the all-zero codeword goes
// to the most frequent word, which then costs zero transitions every time
// it is fetched. The map w -> c(w) is injective, so the receiver recovers
// w_t = c^{-1}(bus_t XOR bus_{t-1}).
//
// A capped book (entries > 0) adds an escape line: unmapped words drive
// their raw value absolutely on the low 32 lines (upper redundant lines
// cleared) and toggle the escape line so the receiver skips the inverse
// map.
//
// Under transition signaling the cost of a mapped fetch is the weight of
// its (index-pure) difference codeword, so escape-free +1 runs are prefix
// differences: weight sum, escape count and the bus state (an XOR prefix
// of codewords) all read in O(1), with a 64-entry block-max answering the
// peak-weight watermark. Only spans containing escapes walk word by word,
// over precomputed arrays.
type lwcScheme struct{}

func init() { Register(lwcScheme{}) }

// lwcDefaultExtraLines widens the bus by 4 lines by default: 36 choose 2
// low-weight codewords already cover thousands of distinct words at
// weight <= 2.
const lwcDefaultExtraLines = 4

func (lwcScheme) Name() string { return "lwc" }

func (lwcScheme) Description() string {
	return "limited-weight code over transition signaling: frequent words get low-weight difference codewords (Valentini & Chiani)"
}

func (lwcScheme) ConfigSpace() []Knob {
	return []Knob{
		{Name: "extra_lines", Doc: "redundant bus lines added (0 = 4)", Min: 0, Max: 8},
		{Name: "entries", Doc: "difference-codeword book capacity (0 = map every distinct word)", Min: 0, Max: 1 << 16},
	}
}

func (lwcScheme) Validate(p Params) error {
	if p.ExtraLines < 0 || p.ExtraLines > 8 {
		return fmt.Errorf("scheme: lwc: extra lines %d out of range [0,8]", p.ExtraLines)
	}
	if p.Entries < 0 || p.Entries > 1<<16 {
		return fmt.Errorf("scheme: lwc: entries %d out of range [0,%d]", p.Entries, 1<<16)
	}
	if p.BlockSize != 0 || p.TTEntries != 0 || p.BBITEntries != 0 || p.AllFunctions || p.Exact || p.Knapsack || p.BusWidth != 0 {
		return fmt.Errorf("scheme: lwc: paper knobs are not lwc knobs")
	}
	return nil
}

// lwcCodewords enumerates the first n difference codewords over `lines`
// bus lines in increasing weight, increasing value within a weight. The
// 64-bit space accommodates up to 40 lines.
func lwcCodewords(n, lines int) []uint64 {
	out := make([]uint64, 0, n)
	top := uint64(1)<<uint(lines) - 1
	for weight := 0; weight <= lines && len(out) < n; weight++ {
		if weight == 0 {
			out = append(out, 0)
			continue
		}
		v := uint64(1)<<uint(weight) - 1
		for len(out) < n {
			out = append(out, v)
			if v == top>>uint(lines-weight)<<uint(lines-weight) {
				break // highest value of this weight class
			}
			c := v & -v
			r := v + c
			v = (((r ^ v) >> 2) / c) | r
		}
	}
	return out
}

func (lwcScheme) Spec(p Params) string {
	extra := p.ExtraLines
	if extra == 0 {
		extra = lwcDefaultExtraLines
	}
	if p.Entries == 0 {
		return fmt.Sprintf("lines=%d entries=all", 32+extra)
	}
	return fmt.Sprintf("lines=%d entries=%d", 32+extra, p.Entries)
}

// lwcBlockShift sizes the block-max index for peak-weight range queries.
const lwcBlockShift = 6

// lwcTables is the derived per-(entries, lines) structure: the per-index
// difference codeword and escape tables the scalar path also builds, plus
// the prefix sums an escape-free span reads — mapped weights, escape
// counts, the XOR of mapped codewords — and per-64-index weight maxima.
type lwcTables struct {
	entries int
	capped  bool
	err     error
	diff    []uint64
	mapped  []bool
	wt      []uint8  // codeword weight of mapped indices, 0 at escapes
	wtPre   []uint64 // prefix of wt
	escPre  []uint32 // prefix count of escapes
	xorPre  []uint64 // prefix XOR of mapped codewords
	blkMax  []uint8  // max wt per 64-index block
}

// lwcTablesFor builds (or fetches) the tables of one requested capacity
// and line count.
func (st *Stream) lwcTablesFor(reqEntries, lines int) (*lwcTables, bool) {
	key := string([]byte{'l', byte(reqEntries), byte(reqEntries >> 8), byte(reqEntries >> 16), byte(reqEntries >> 24), byte(lines)})
	v, hit := st.derive(key, func() any {
		cap := st.cap
		ranked := rankWords(cap)
		entries := reqEntries
		capped := entries > 0 && entries < len(ranked)
		if entries == 0 || entries > len(ranked) {
			entries = len(ranked)
		}
		t := &lwcTables{entries: entries, capped: capped}
		book := lwcCodewords(entries, lines)
		if len(book) < entries {
			t.err = fmt.Errorf("scheme: lwc: %d lines cannot host %d codewords", lines, entries)
			return t
		}
		rank := make(map[uint32]int, len(ranked))
		for i, wf := range ranked {
			rank[wf.word] = i
		}
		n := len(cap.Words)
		t.diff = make([]uint64, n)
		t.mapped = make([]bool, n)
		t.wt = make([]uint8, n)
		t.wtPre = make([]uint64, n)
		t.escPre = make([]uint32, n)
		t.xorPre = make([]uint64, n)
		t.blkMax = make([]uint8, (n+63)>>lwcBlockShift)
		for i, word := range cap.Words {
			if r := rank[word]; r < entries {
				t.diff[i], t.mapped[i] = book[r], true
				t.wt[i] = uint8(bits.OnesCount64(book[r]))
			} else {
				t.diff[i] = uint64(word)
			}
			if i > 0 {
				t.wtPre[i], t.escPre[i], t.xorPre[i] = t.wtPre[i-1], t.escPre[i-1], t.xorPre[i-1]
			}
			if t.mapped[i] {
				t.wtPre[i] += uint64(t.wt[i])
				t.xorPre[i] ^= t.diff[i]
			} else {
				t.escPre[i]++
			}
			if b := i >> lwcBlockShift; t.wt[i] > t.blkMax[b] {
				t.blkMax[b] = t.wt[i]
			}
		}
		return t
	})
	return v.(*lwcTables), hit
}

// rangeMaxWt returns the maximum mapped codeword weight over indices
// lo..hi, blockwise.
func (t *lwcTables) rangeMaxWt(lo, hi int32) uint8 {
	var m uint8
	i := lo
	for ; i <= hi && i&63 != 0; i++ {
		if t.wt[i] > m {
			m = t.wt[i]
		}
	}
	for ; i+63 <= hi; i += 64 {
		if b := t.blkMax[i>>lwcBlockShift]; b > m {
			m = b
		}
	}
	for ; i <= hi; i++ {
		if t.wt[i] > m {
			m = t.wt[i]
		}
	}
	return m
}

// lwcCoder is the limited-weight-code batch coder: acc[0] transitions
// (including the escape line), acc[1] mapped weight sum, acc[2] escapes;
// peak is the maximum mapped codeword weight observed. Its state is the
// bus value — the XOR of history since the last escape.
type lwcCoder struct {
	fleetAcc
	t   *lwcTables
	bus uint64
}

func (c *lwcCoder) begin(idx int32) {
	c.bus = c.t.diff[idx] // codeword, or raw word with upper lines clear
	if !c.t.mapped[idx] {
		c.acc[2]++
	}
}

func (c *lwcCoder) step(idx int32) {
	t := c.t
	if t.mapped[idx] {
		wt := uint64(t.wt[idx])
		c.acc[0] += wt
		c.acc[1] += wt
		if wt > c.peak {
			c.peak = wt
		}
		c.bus ^= t.diff[idx]
		return
	}
	// Escape: raw word absolute on the low 32 lines, upper redundant
	// lines cleared, escape line toggled.
	c.acc[2]++
	next := t.diff[idx]
	c.acc[0] += uint64(bits.OnesCount64(c.bus^next)) + 1
	c.bus = next
}

func (c *lwcCoder) seq(lo, hi int32) {
	t := c.t
	if t.escPre[hi] == t.escPre[lo-1] {
		wt := t.wtPre[hi] - t.wtPre[lo-1]
		c.acc[0] += wt
		c.acc[1] += wt
		c.bus ^= t.xorPre[hi] ^ t.xorPre[lo-1]
		if m := uint64(t.rangeMaxWt(lo, hi)); m > c.peak {
			c.peak = m
		}
		return
	}
	for i := lo; i <= hi; i++ {
		c.step(i)
	}
}

func (c *lwcCoder) state(int32) fleetState { return fleetState{a: c.bus} }

func (c *lwcCoder) setState(_ int32, s fleetState) { c.bus = s.a }

func (s lwcScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	extraLines := p.ExtraLines
	if extraLines == 0 {
		extraLines = lwcDefaultExtraLines
	}
	lines := 32 + extraLines
	cap := w.Cap
	var (
		entries    int
		capped     bool
		trans      uint64
		weightSum  uint64
		maxWeight  uint64
		escapes    uint64
		diag       fleetDiag
		derivedHit bool
		batch      = BatchReplay()
	)
	if batch {
		st := fleetStream(w)
		tab, hit := st.lwcTablesFor(p.Entries, lines)
		if tab.err != nil {
			return nil, tab.err
		}
		c := &lwcCoder{t: tab}
		d, err := runFleet(ctx, cap, c, w.FleetShared)
		if err != nil {
			return nil, err
		}
		entries, capped = tab.entries, tab.capped
		trans, weightSum, escapes, maxWeight = c.acc[0], c.acc[1], c.acc[2], c.peak
		diag, derivedHit = d, hit
	} else {
		ranked := rankWords(cap)
		entries = p.Entries
		capped = entries > 0 && entries < len(ranked)
		if entries == 0 || entries > len(ranked) {
			entries = len(ranked)
		}
		book := lwcCodewords(entries, lines)
		if len(book) < entries {
			return nil, fmt.Errorf("scheme: lwc: %d lines cannot host %d codewords", lines, entries)
		}

		rank := make(map[uint32]int, len(ranked))
		for i, wf := range ranked {
			rank[wf.word] = i
		}
		// diff[i] is the difference codeword of text index i; mapped[i] is
		// false for escape (raw absolute) transfers of a capped book.
		diff := make([]uint64, len(cap.Words))
		mapped := make([]bool, len(cap.Words))
		for i, word := range cap.Words {
			if r := rank[word]; r < entries {
				diff[i], mapped[i] = book[r], true
			} else {
				diff[i] = uint64(word)
			}
		}

		var (
			started bool
			bus     uint64 // low `lines` bits are the bus state
		)
		if err := replayIndices(ctx, cap, func(idx int32) {
			if !started {
				started = true
				bus = diff[idx] // codeword, or raw word with upper lines clear
				if !mapped[idx] {
					escapes++
				}
				return
			}
			if mapped[idx] {
				next := bus ^ diff[idx]
				wt := uint64(bits.OnesCount64(diff[idx]))
				trans += wt
				weightSum += wt
				if wt > maxWeight {
					maxWeight = wt
				}
				bus = next
				return
			}
			// Escape: raw word absolute on the low 32 lines, upper redundant
			// lines cleared, escape line toggled.
			escapes++
			next := diff[idx]
			trans += uint64(bits.OnesCount64(bus^next)) + 1
			bus = next
		}); err != nil {
			return nil, err
		}
	}

	extra := extraLines
	if capped {
		extra++ // the escape line
	}
	r := &Result{
		Scheme:        "lwc",
		Spec:          fmt.Sprintf("lines=%d entries=%d", lines, entries),
		Instructions:  cap.Instructions,
		Baseline:      cap.BaselineTotal,
		Transitions:   trans,
		OverheadBits:  entries * (lines + 32), // word <-> difference-codeword CAM
		ExtraBusLines: extra,
		Detail: map[string]float64{
			"entries":        float64(entries),
			"avg_weight":     float64(weightSum) / float64(max(cap.Trace.N, 1)),
			"max_weight":     float64(maxWeight),
			"escape_percent": 100 * float64(escapes) / float64(max(cap.Trace.N, 1)),
		},
	}
	if batch {
		fleetFinish(r, diag, derivedHit)
	} else {
		r.finish()
	}
	return r, nil
}
