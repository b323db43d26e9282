package scheme

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/baseline"
)

// dictionaryScheme replays the captured stream through the baseline
// dictionary-compression coder (cf. Lekatsas et al.): the most frequent
// instructions drive only index lines plus a hit flag, misses drive the
// raw word. At the default 256 entries its transition total equals the
// DictionaryTotal the capture recorded.
//
// The batch kernel cannot prefix-sum — the undriven lines hold the bits
// of the last miss, so the bus state threads through every fetch — but it
// replaces the per-fetch hash lookup with a derived per-text-index drive
// table built once per (capture, entries) and walks +1 runs in a tight
// array loop.
type dictionaryScheme struct{}

func init() { Register(dictionaryScheme{}) }

func (dictionaryScheme) Name() string { return "dictionary" }

func (dictionaryScheme) Description() string {
	return "dictionary instruction compression: frequent words drive short indices into a processor-side table"
}

func (dictionaryScheme) ConfigSpace() []Knob {
	return []Knob{
		{Name: "entries", Doc: "dictionary capacity (0 = 256)", Min: 0, Max: 1 << 16},
	}
}

func (dictionaryScheme) Validate(p Params) error {
	if p.Entries < 0 || p.Entries > 1<<16 {
		return fmt.Errorf("scheme: dictionary: entries %d out of range [0,%d]", p.Entries, 1<<16)
	}
	if p.BlockSize != 0 || p.TTEntries != 0 || p.BBITEntries != 0 || p.AllFunctions || p.Exact || p.Knapsack || p.BusWidth != 0 {
		return fmt.Errorf("scheme: dictionary: paper knobs are not dictionary knobs")
	}
	if p.ExtraLines != 0 {
		return fmt.Errorf("scheme: dictionary: extra_lines is not a dictionary knob")
	}
	return nil
}

func (dictionaryScheme) Spec(p Params) string {
	entries := p.Entries
	if entries == 0 {
		entries = 256
	}
	return fmt.Sprintf("entries=%d", entries)
}

// dictTables is the derived per-entries drive pattern of each text index:
// the pre-masked driven bits, the driven-line mask and the hit flag —
// everything Transfer recomputes per fetch, hoisted to build time. The
// dictionary itself rides along for the table/index diagnostics; batch
// replay never mutates it.
type dictTables struct {
	dict  *baseline.Dictionary
	drive []uint32
	dmask []uint32
	hit   []bool
}

// dictTablesFor builds (or fetches) the drive tables of one capacity.
func (st *Stream) dictTablesFor(entries int) (*dictTables, bool) {
	key := string([]byte{'d', byte(entries), byte(entries >> 8), byte(entries >> 16), byte(entries >> 24)})
	v, hit := st.derive(key, func() any {
		cap := st.cap
		dict := baseline.BuildDictionary(cap.Words, cap.Profile, entries)
		idxMask := uint32(1)<<uint(dict.IndexBits()) - 1
		t := &dictTables{
			dict:  dict,
			drive: make([]uint32, len(cap.Words)),
			dmask: make([]uint32, len(cap.Words)),
			hit:   make([]bool, len(cap.Words)),
		}
		for i, word := range cap.Words {
			if idx, ok := dict.Index(word); ok {
				t.drive[i], t.dmask[i], t.hit[i] = idx&idxMask, idxMask, true
			} else {
				t.drive[i], t.dmask[i] = word, ^uint32(0)
			}
		}
		return t
	})
	return v.(*dictTables), hit
}

// dictCoder is the dictionary batch coder: acc[0] bus transitions
// (including the hit-flag line), acc[1] dictionary hits. Its state is the
// full bus word — misses park their bits on the undriven lines — plus the
// hit-flag level.
type dictCoder struct {
	fleetAcc
	t       *dictTables
	last    uint32
	lastHit bool
}

func (c *dictCoder) begin(idx int32) {
	c.last = c.t.drive[idx] // drive is stored pre-masked
	c.lastHit = c.t.hit[idx]
	if c.lastHit {
		c.acc[1]++
	}
}

func (c *dictCoder) step(idx int32) { c.seq(idx, idx) }

func (c *dictCoder) seq(lo, hi int32) {
	t := c.t
	last, lastHit, trans, hits := c.last, c.lastHit, c.acc[0], c.acc[1]
	for i := lo; i <= hi; i++ {
		hit := t.hit[i]
		next := last&^t.dmask[i] | t.drive[i] // undriven lines hold their value
		trans += uint64(bits.OnesCount32(next ^ last))
		if hit != lastHit {
			trans++
		}
		if hit {
			hits++
		}
		last, lastHit = next, hit
	}
	c.last, c.lastHit, c.acc[0], c.acc[1] = last, lastHit, trans, hits
}

func (c *dictCoder) state(int32) fleetState {
	var h uint64
	if c.lastHit {
		h = 1
	}
	return fleetState{a: uint64(c.last), b: h}
}

func (c *dictCoder) setState(_ int32, s fleetState) {
	c.last = uint32(s.a)
	c.lastHit = s.b != 0
}

func (s dictionaryScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	entries := p.Entries
	if entries == 0 {
		entries = 256
	}
	cap := w.Cap
	var (
		trans, hits uint64
		dict        *baseline.Dictionary
		diag        fleetDiag
		derivedHit  bool
		batch       = BatchReplay()
	)
	if batch {
		st := fleetStream(w)
		tab, hit := st.dictTablesFor(entries)
		c := &dictCoder{t: tab}
		d, err := runFleet(ctx, cap, c, w.FleetShared)
		if err != nil {
			return nil, err
		}
		trans, hits, dict = c.acc[0], c.acc[1], tab.dict
		diag, derivedHit = d, hit
	} else {
		dict = baseline.BuildDictionary(cap.Words, cap.Profile, entries)
		if err := replayWords(ctx, cap, func(word uint32) {
			dict.Transfer(word)
		}); err != nil {
			return nil, err
		}
		trans, hits = dict.Transitions(), 0
	}
	hitRate := dict.HitRate()
	if batch {
		hitRate = 100 * float64(hits) / float64(max(cap.Trace.N, 1))
	}
	r := &Result{
		Scheme:        "dictionary",
		Spec:          s.Spec(p),
		Instructions:  cap.Instructions,
		Baseline:      cap.BaselineTotal,
		Transitions:   trans,
		OverheadBits:  dict.TableBits(),
		ExtraBusLines: 1, // the hit flag line
		Detail: map[string]float64{
			"hit_rate_percent": hitRate,
			"index_bits":       float64(dict.IndexBits()),
			"entries":          float64(dict.Entries()),
		},
	}
	if batch {
		fleetFinish(r, diag, derivedHit)
	} else {
		r.finish()
	}
	return r, nil
}
