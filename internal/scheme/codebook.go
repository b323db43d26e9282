package scheme

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"imtrans/internal/replay"
)

// codebookScheme implements optimal memoryless encoding in the style of
// Chee & Colbourn ("Optimal Memoryless Encoding for Low Power Off-Chip
// Data Buses"): each instruction word is mapped — independently of
// history, hence "memoryless" — to a fixed codeword, with the codewords
// of low Hamming weight assigned to the dynamically most frequent words.
// Clustering the probability mass on near-zero codewords minimises the
// expected pairwise Hamming distance between consecutive transfers, which
// for a memoryless map is exactly the expected bus transition count.
//
// A capped book (entries > 0) adds a mapped-flag line: hits drive their
// codeword, misses drive the raw word, and the receiver needs the flag to
// know which inverse to apply. An uncapped book (entries = 0) maps every
// distinct word of the image and needs no flag.
//
// Memorylessness makes the batch kernel trivial: the driven value is a
// pure function of the text index, so the cost of any adjacent pair is
// index-pure and a +1 run is a prefix-sum difference — the coder carries
// no state at all.
type codebookScheme struct{}

func init() { Register(codebookScheme{}) }

func (codebookScheme) Name() string { return "codebook" }

func (codebookScheme) Description() string {
	return "optimal memoryless codebook: frequent words get low-weight codewords (Chee & Colbourn)"
}

func (codebookScheme) ConfigSpace() []Knob {
	return []Knob{
		{Name: "entries", Doc: "codebook capacity (0 = map every distinct word)", Min: 0, Max: 1 << 16},
	}
}

func (codebookScheme) Validate(p Params) error {
	if p.Entries < 0 || p.Entries > 1<<16 {
		return fmt.Errorf("scheme: codebook: entries %d out of range [0,%d]", p.Entries, 1<<16)
	}
	if p.BlockSize != 0 || p.TTEntries != 0 || p.BBITEntries != 0 || p.AllFunctions || p.Exact || p.Knapsack || p.BusWidth != 0 {
		return fmt.Errorf("scheme: codebook: paper knobs are not codebook knobs")
	}
	if p.ExtraLines != 0 {
		return fmt.Errorf("scheme: codebook: extra_lines is not a codebook knob")
	}
	return nil
}

// wordFreq is one distinct instruction word with its dynamic execution
// frequency and static first appearance (the deterministic tie-break).
type wordFreq struct {
	word  uint32
	count uint64
	first int
}

// rankWords returns the distinct words of a captured image ordered by
// decreasing dynamic frequency (profile-weighted), first appearance
// breaking ties — the same ordering discipline the dictionary baseline
// uses, so rankings are deterministic and comparable.
func rankWords(cap *replay.Capture) []wordFreq {
	byWord := make(map[uint32]int, len(cap.Words))
	var order []wordFreq
	for i, w := range cap.Words {
		j, ok := byWord[w]
		if !ok {
			j = len(order)
			byWord[w] = j
			order = append(order, wordFreq{word: w, first: i})
		}
		if i < len(cap.Profile) {
			order[j].count += cap.Profile[i]
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].count != order[b].count {
			return order[a].count > order[b].count
		}
		return order[a].first < order[b].first
	})
	return order
}

// codewords enumerates the first n 32-bit values in increasing Hamming
// weight, increasing numeric value within a weight — the codeword
// assignment order of both related-work schemes. Enumeration within a
// weight class uses Gosper's hack (next higher value with the same
// popcount).
func codewords(n int) []uint32 {
	out := make([]uint32, 0, n)
	for weight := 0; weight <= 32 && len(out) < n; weight++ {
		if weight == 0 {
			out = append(out, 0)
			continue
		}
		v := uint32(1)<<uint(weight) - 1
		for len(out) < n {
			out = append(out, v)
			if weight == 32 {
				break
			}
			// Gosper's hack: smallest value > v with the same popcount.
			c := v & -v
			r := v + c
			next := (((r ^ v) >> 2) / c) | r
			if bits.OnesCount32(next) != weight || next < v {
				break // wrapped past the top of the weight class
			}
			v = next
		}
	}
	return out
}

func (codebookScheme) Spec(p Params) string {
	if p.Entries == 0 {
		return "entries=all"
	}
	return fmt.Sprintf("entries=%d", p.Entries)
}

// cbTables is the derived per-entries codebook structure: the per-index
// codeword/mapped tables the scalar path also builds, plus prefix sums of
// the (index-pure) pair cost and the per-fetch hit indicator. cost[i]
// charges the pair (i-1, i) including the mapped-flag toggle of a capped
// book; hits[i] counts mapped indices in 0..i.
type cbTables struct {
	entries int
	capped  bool
	code    []uint32
	mapped  []bool
	cost    []uint64
	hits    []uint64
}

// cbTablesFor builds (or fetches) the codebook tables of one requested
// capacity (the pre-resolution Params value; resolution against the
// distinct-word count happens inside the build).
func (st *Stream) cbTablesFor(reqEntries int) (*cbTables, bool) {
	key := string([]byte{'c', byte(reqEntries), byte(reqEntries >> 8), byte(reqEntries >> 16), byte(reqEntries >> 24)})
	v, hit := st.derive(key, func() any {
		cap := st.cap
		ranked := rankWords(cap)
		entries := reqEntries
		capped := entries > 0 && entries < len(ranked)
		if entries == 0 || entries > len(ranked) {
			entries = len(ranked)
		}
		book := codewords(entries)
		rank := make(map[uint32]int, len(ranked))
		for i, wf := range ranked {
			rank[wf.word] = i
		}
		t := &cbTables{
			entries: entries,
			capped:  capped,
			code:    make([]uint32, len(cap.Words)),
			mapped:  make([]bool, len(cap.Words)),
			cost:    make([]uint64, len(cap.Words)),
			hits:    make([]uint64, len(cap.Words)),
		}
		for i, word := range cap.Words {
			if r := rank[word]; r < entries {
				t.code[i], t.mapped[i] = book[r], true
			} else {
				t.code[i] = word
			}
		}
		for i := range cap.Words {
			if t.mapped[i] {
				t.hits[i] = 1
			}
			if i == 0 {
				continue
			}
			c := uint64(bits.OnesCount32(t.code[i] ^ t.code[i-1]))
			if capped && t.mapped[i] != t.mapped[i-1] {
				c++ // the mapped-flag line
			}
			t.cost[i] = t.cost[i-1] + c
			t.hits[i] += t.hits[i-1]
		}
		return t
	})
	return v.(*cbTables), hit
}

// cbCoder is the codebook batch coder: acc[0] transitions, acc[1] mapped
// hits. The driven value is index-pure, so the snapshot state is empty —
// the previous index (tracked for scalar steps) is restored from the
// engine's position.
type cbCoder struct {
	fleetAcc
	t       *cbTables
	lastIdx int32
}

func (c *cbCoder) begin(idx int32) {
	c.lastIdx = idx
	if c.t.mapped[idx] {
		c.acc[1]++
	}
}

func (c *cbCoder) step(idx int32) {
	t := c.t
	c.acc[0] += uint64(bits.OnesCount32(t.code[idx] ^ t.code[c.lastIdx]))
	if t.capped && t.mapped[idx] != t.mapped[c.lastIdx] {
		c.acc[0]++
	}
	if t.mapped[idx] {
		c.acc[1]++
	}
	c.lastIdx = idx
}

func (c *cbCoder) seq(lo, hi int32) {
	t := c.t
	c.acc[0] += t.cost[hi] - t.cost[lo-1]
	c.acc[1] += t.hits[hi] - t.hits[lo-1]
	c.lastIdx = hi
}

func (c *cbCoder) state(int32) fleetState { return fleetState{} }

func (c *cbCoder) setState(idx int32, _ fleetState) { c.lastIdx = idx }

func (s codebookScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	cap := w.Cap
	var (
		entries     int
		capped      bool
		trans, hits uint64
		diag        fleetDiag
		derivedHit  bool
		batch       = BatchReplay()
	)
	if batch {
		st := fleetStream(w)
		tab, hit := st.cbTablesFor(p.Entries)
		c := &cbCoder{t: tab}
		d, err := runFleet(ctx, cap, c, w.FleetShared)
		if err != nil {
			return nil, err
		}
		entries, capped, trans, hits = tab.entries, tab.capped, c.acc[0], c.acc[1]
		diag, derivedHit = d, hit
	} else {
		ranked := rankWords(cap)
		entries = p.Entries
		capped = entries > 0 && entries < len(ranked)
		if entries == 0 || entries > len(ranked) {
			entries = len(ranked)
		}
		book := codewords(entries)

		// Per-text-index codeword table: code[i] is the driven value for a
		// fetch of text index i, mapped[i] whether it came from the book.
		rank := make(map[uint32]int, len(ranked))
		for i, wf := range ranked {
			rank[wf.word] = i
		}
		code := make([]uint32, len(cap.Words))
		mapped := make([]bool, len(cap.Words))
		for i, word := range cap.Words {
			if r := rank[word]; r < entries {
				code[i], mapped[i] = book[r], true
			} else {
				code[i] = word
			}
		}

		var (
			started  bool
			last     uint32
			lastFlag bool
		)
		if err := replayIndices(ctx, cap, func(idx int32) {
			drive, hit := code[idx], mapped[idx]
			if hit {
				hits++
			}
			if !started {
				started, last, lastFlag = true, drive, hit
				return
			}
			trans += uint64(bits.OnesCount32(drive ^ last))
			if capped && hit != lastFlag {
				trans++ // the mapped-flag line
			}
			last, lastFlag = drive, hit
		}); err != nil {
			return nil, err
		}
	}

	extra := 0
	if capped {
		extra = 1
	}
	r := &Result{
		Scheme:        "codebook",
		Spec:          fmt.Sprintf("entries=%d", entries),
		Instructions:  cap.Instructions,
		Baseline:      cap.BaselineTotal,
		Transitions:   trans,
		OverheadBits:  entries * 64, // word -> codeword CAM on both sides
		ExtraBusLines: extra,
		Detail: map[string]float64{
			"entries":          float64(entries),
			"hit_rate_percent": 100 * float64(hits) / float64(max(cap.Trace.N, 1)),
		},
	}
	if batch {
		fleetFinish(r, diag, derivedHit)
	} else {
		r.finish()
	}
	return r, nil
}
