package scheme

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/baseline"
)

// The address-bus codes (Gray, T0) measure the *fetch-address* stream,
// not the instruction data bus: their Baseline is the binary address-bus
// transition count of the same trace, so their reduction percentages are
// not directly comparable with the data-bus schemes' — Detail carries
// bus="addr" (1.0) to mark that, and docs/SCHEMES.md spells it out. They
// are registered because an SoC deploys both classes at once and the
// paper's Section 2 contrast is worth reproducing per workload.
//
// Their batch kernel is the purest case: the address of fetch i is a
// function of i alone, so the binary and Gray pair costs of a +1 run are
// prefix differences over the derived per-width address tables, and T0 is
// O(1) outright — every interior step of a +1 run is sequential for any
// power-of-two width (masking commutes with the +4 increment), so the
// address lines freeze and at most the INC line toggles once on entry.
type addrBusScheme struct {
	name string
	desc string
	pick func(a *baseline.AddrBus) uint64
	sel  int // accumulator lane of the batch coder
}

func init() {
	Register(&addrBusScheme{
		name: "gray",
		desc: "Gray-coded instruction address bus: sequential fetches toggle one line",
		pick: (*baseline.AddrBus).Gray,
		sel:  1,
	})
	Register(&addrBusScheme{
		name: "t0",
		desc: "T0 address code: an INC line freezes the address lines across sequential fetches (Benini et al.)",
		pick: (*baseline.AddrBus).T0,
		sel:  2,
	})
}

func (s *addrBusScheme) Name() string        { return s.name }
func (s *addrBusScheme) Description() string { return s.desc }

var addrBusKnobs = []Knob{
	{Name: "bus_width", Doc: "address lines modelled (0 = 32)", Min: 0, Max: 32},
}

func (*addrBusScheme) ConfigSpace() []Knob { return addrBusKnobs }

func (s *addrBusScheme) Spec(p Params) string {
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	return fmt.Sprintf("width=%d", width)
}

// addrCoder measures the three address codings at once, like
// baseline.AddrBus: acc[0] binary, acc[1] Gray, acc[2] T0 (including the
// INC line). The binary and Gray bus states are functions of the current
// index; only the frozen T0 value and the INC level are real state.
type addrCoder struct {
	fleetAcc
	base   uint32
	mask   uint32
	tab    *addrTables
	last   uint32 // previous (masked) address
	t0Last uint32 // frozen address-line value under T0
	t0Inc  bool
}

func (c *addrCoder) addr(idx int32) uint32 { return (c.base + uint32(idx)*4) & c.mask }

func (c *addrCoder) begin(idx int32) {
	a := c.addr(idx)
	c.last, c.t0Last, c.t0Inc = a, a, false
}

func (c *addrCoder) step(idx int32) {
	a := c.addr(idx)
	c.acc[0] += uint64(bits.OnesCount32((a ^ c.last) & c.mask))
	g := baseline.GrayEncode(a>>2) & c.mask
	gl := baseline.GrayEncode(c.last>>2) & c.mask
	c.acc[1] += uint64(bits.OnesCount32((g ^ gl) & c.mask))
	inc := a == (c.last+4)&c.mask
	if !inc {
		c.acc[2] += uint64(bits.OnesCount32((a ^ c.t0Last) & c.mask))
		c.t0Last = a
	}
	if inc != c.t0Inc {
		c.acc[2]++
	}
	c.t0Inc = inc
	c.last = a
}

func (c *addrCoder) seq(lo, hi int32) {
	c.acc[0] += c.tab.bin[hi] - c.tab.bin[lo-1]
	c.acc[1] += c.tab.gray[hi] - c.tab.gray[lo-1]
	// Every step of a +1 run is sequential under T0 (masking commutes
	// with +4), so the address lines stay frozen and the whole span costs
	// at most the one INC-line toggle on entry.
	if !c.t0Inc {
		c.acc[2]++
		c.t0Inc = true
	}
	c.last = c.addr(hi)
}

func (c *addrCoder) state(int32) fleetState {
	var inc uint64
	if c.t0Inc {
		inc = 1
	}
	return fleetState{a: uint64(c.t0Last), b: inc}
}

func (c *addrCoder) setState(idx int32, s fleetState) {
	c.t0Last = uint32(s.a)
	c.t0Inc = s.b != 0
	c.last = c.addr(idx)
}

func (s *addrBusScheme) Measure(ctx context.Context, w *Workload, p Params) (*Result, error) {
	if err := Validate(s, p); err != nil {
		return nil, err
	}
	width := p.BusWidth
	if width == 0 {
		width = 32
	}
	cap := w.Cap
	var (
		binary, picked uint64
		diag           fleetDiag
		derivedHit     bool
		batch          = BatchReplay()
	)
	if batch {
		st := fleetStream(w)
		tab, hit := st.addrTablesFor(width)
		c := &addrCoder{base: cap.Base, mask: widthMask(width), tab: tab}
		d, err := runFleet(ctx, cap, c, w.FleetShared)
		if err != nil {
			return nil, err
		}
		binary, picked = c.acc[0], c.acc[s.sel]
		diag, derivedHit = d, hit
	} else {
		bus := baseline.NewAddrBus(width, 4)
		if err := replayIndices(ctx, cap, func(idx int32) {
			bus.Transfer(cap.Base + uint32(idx)*4)
		}); err != nil {
			return nil, err
		}
		binary, picked = bus.Binary(), s.pick(bus)
	}
	extra := 0
	if s.name == "t0" {
		extra = 1 // the INC line
	}
	r := &Result{
		Scheme:        s.name,
		Spec:          s.Spec(p),
		Instructions:  cap.Instructions,
		Baseline:      binary,
		Transitions:   picked,
		ExtraBusLines: extra,
		Detail: map[string]float64{
			"bus_addr": 1, // marks the address bus: Baseline differs from data-bus schemes
		},
	}
	fleetFinish(r, diag, derivedHit)
	return r, nil
}
