package scheme

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/baseline"
)

// busInvertScheme replays the captured fetch stream through the baseline
// Bus-Invert coder (Stan & Burleson). At the default 32-line width its
// total is bit-identical to the BusInvertTotal the capture's profiling
// run accumulated — asserted by the differential tests — because both
// drive the same deterministic coder with the same word sequence.
//
// The batch kernel rests on a classification of each adjacent pair by its
// masked toggle count p against the width w: p < w/2 leaves the invert
// state alone, p > w/2 always flips it, and p == w/2 always resets it to
// zero (the coder prefers the uninverted word on a tie, and from an
// inverted state the complementary view also has exactly w/2 toggles).
// In all three cases the data-line cost of the pair is the same whether
// the coder enters inverted or not — min(p, w-p) — so the data cost of a
// whole +1 run is a prefix-sum difference, and the invert-line cost
// reduces to the flip count plus the (rare) reset pairs entered inverted.
type busInvertScheme struct{}

func init() { Register(busInvertScheme{}) }

func (busInvertScheme) Name() string { return "businvert" }

func (busInvertScheme) Description() string {
	return "Bus-Invert coding: complement the word when more than half the lines would toggle (Stan & Burleson)"
}

func (busInvertScheme) ConfigSpace() []Knob {
	return []Knob{
		{Name: "bus_width", Doc: "data lines coded (0 = 32)", Min: 0, Max: 32},
	}
}

func (busInvertScheme) Validate(p Params) error {
	if p.BusWidth != 0 && (p.BusWidth < 1 || p.BusWidth > 32) {
		return fmt.Errorf("scheme: businvert: bus width %d out of range [1,32]", p.BusWidth)
	}
	if p.BlockSize != 0 || p.TTEntries != 0 || p.BBITEntries != 0 || p.AllFunctions || p.Exact || p.Knapsack {
		return fmt.Errorf("scheme: businvert: paper knobs are not bus-invert knobs")
	}
	if p.Entries != 0 || p.ExtraLines != 0 {
		return fmt.Errorf("scheme: businvert: entries/extra_lines are not bus-invert knobs")
	}
	return nil
}

func (busInvertScheme) Spec(p Params) string {
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	return fmt.Sprintf("width=%d", width)
}

// biTables is the derived per-width bus-invert structure over a stream:
// the masked per-pair popcounts plus prefix sums of the three
// state-independent per-pair quantities (data cost, unconditional invert
// flips, tie resets). cost/flip/zero[i] cover pairs 1..i, so a +1 run
// over fetches lo..hi (predecessor lo-1) reads index hi minus index lo-1.
type biTables struct {
	pp   []uint8  // masked toggle count of pair i
	cost []uint64 // prefix: min(p, w-p) data cost per pair
	flip []uint32 // prefix: pairs with 2p > w (invert state always flips)
	zero []uint32 // prefix: pairs with 2p == w (invert state resets to 0)
}

// biTablesFor builds (or fetches) the bus-invert tables of one width.
func (st *Stream) biTablesFor(width int) (*biTables, bool) {
	v, hit := st.derive(string([]byte{'b', byte(width)}), func() any {
		pp := st.MaskedPairPop(widthMask(width))
		t := &biTables{
			pp:   pp,
			cost: make([]uint64, len(pp)),
			flip: make([]uint32, len(pp)),
			zero: make([]uint32, len(pp)),
		}
		w := uint64(width)
		for i := 1; i < len(pp); i++ {
			p := uint64(pp[i])
			c, f, z := p, uint32(0), uint32(0)
			switch {
			case 2*p > w:
				c, f = w-p, 1
			case 2*p == w:
				z = 1
			}
			t.cost[i] = t.cost[i-1] + c
			t.flip[i] = t.flip[i-1] + f
			t.zero[i] = t.zero[i-1] + z
		}
		return t
	})
	return v.(*biTables), hit
}

// biCoder is the bus-invert batch coder: acc[0] data-line transitions,
// acc[1] invert-line transitions. Its only non-derivable state is the
// invert flag — the driven bus value is words[idx] (masked) XOR the
// inversion, so state snapshots are one bit.
type biCoder struct {
	fleetAcc
	words   []uint32
	mask    uint32
	width   int64
	tab     *biTables
	inv     uint64 // 0 or 1
	lastRaw uint32 // previous word, masked (pre-inversion)
}

// pair consumes one transfer whose raw toggle count against the previous
// word is p, branchlessly: h is the Hamming distance seen by the coder
// (flipped if the bus is inverted), f the new invert decision, and the
// data cost flips p exactly when the inversion state changes.
func (c *biCoder) pair(p int64) {
	h := p + int64(c.inv)*(c.width-2*p)
	f := uint64((c.width-2*h)>>63) & 1
	c.acc[0] += uint64(p + int64(f^c.inv)*(c.width-2*p))
	c.acc[1] += f ^ c.inv
	c.inv = f
}

func (c *biCoder) begin(idx int32) {
	c.lastRaw = c.words[idx] & c.mask
	c.inv = 0
}

func (c *biCoder) step(idx int32) {
	v := c.words[idx] & c.mask
	c.pair(int64(bits.OnesCount32(v ^ c.lastRaw)))
	c.lastRaw = v
}

func (c *biCoder) seq(lo, hi int32) {
	t := c.tab
	if t.zero[hi] == t.zero[lo-1] {
		// No tie pairs: the data cost is a pure prefix difference and the
		// invert line toggles once per flip pair.
		flips := t.flip[hi] - t.flip[lo-1]
		c.acc[0] += t.cost[hi] - t.cost[lo-1]
		c.acc[1] += uint64(flips)
		c.inv ^= uint64(flips & 1)
	} else {
		for i := lo; i <= hi; i++ {
			c.pair(int64(t.pp[i]))
		}
	}
	c.lastRaw = c.words[hi] & c.mask
}

func (c *biCoder) state(int32) fleetState { return fleetState{a: c.inv} }

func (c *biCoder) setState(idx int32, s fleetState) {
	c.inv = s.a
	c.lastRaw = c.words[idx] & c.mask
}

func (s busInvertScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	cap := w.Cap
	var (
		data, inv  uint64
		diag       fleetDiag
		derivedHit bool
		batch      = BatchReplay()
	)
	if batch {
		st := fleetStream(w)
		tab, hit := st.biTablesFor(width)
		c := &biCoder{words: cap.Words, mask: widthMask(width), width: int64(width), tab: tab}
		d, err := runFleet(ctx, cap, c, w.FleetShared)
		if err != nil {
			return nil, err
		}
		data, inv = c.acc[0], c.acc[1]
		diag, derivedHit = d, hit
	} else {
		bi := baseline.NewBusInvert(width)
		if err := replayWords(ctx, cap, func(word uint32) {
			bi.Transfer(word)
		}); err != nil {
			return nil, err
		}
		data, inv = bi.DataTransitions(), bi.InvertTransitions()
	}
	r := &Result{
		Scheme:        "businvert",
		Spec:          s.Spec(p),
		Instructions:  cap.Instructions,
		Baseline:      cap.BaselineTotal,
		Transitions:   data + inv,
		ExtraBusLines: 1, // the invert control line
		Detail: map[string]float64{
			"data_transitions":   float64(data),
			"invert_transitions": float64(inv),
		},
	}
	if batch {
		fleetFinish(r, diag, derivedHit)
	} else {
		r.finish()
	}
	return r, nil
}
