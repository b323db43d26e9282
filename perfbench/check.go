package main

import (
	"context"
	"math/rand"

	"imtrans"
	"imtrans/internal/baseline"
	"imtrans/internal/replay"
)

// oracleSample names the design-grid cells to re-measure through the
// independent oracles: sweep and paper-scheme compare cells through the
// two-run Benchmark.SimulateMeasure pipeline, fleet compare cells through
// the per-word coders.
type oracleSample struct {
	sweep [][2]int // (bench, config)
	paper [][2]int // (bench, spec) of paper specs
	fleet [][2]int // (bench, spec) of the other schemes
}

// fullSample is the reference-generation sample: three sweep configs per
// kernel and every compare cell.
func fullSample(in designInputs) oracleSample {
	rng := rand.New(rand.NewSource(defaultSeed))
	var s oracleSample
	for bi := range in.benches {
		for _, ci := range rng.Perm(len(in.cfgs))[:3] {
			s.sweep = append(s.sweep, [2]int{bi, ci})
		}
		for si, sp := range in.specs {
			if sp.Name == "paper" {
				s.paper = append(s.paper, [2]int{bi, si})
			} else {
				s.fleet = append(s.fleet, [2]int{bi, si})
			}
		}
	}
	return s
}

// seededSample is the per-run sample for seeds without committed counts:
// two sweep cells and one paper compare cell of one of the kernels the
// simulator runs fastest, and four fleet cells anywhere in the grid.
func seededSample(seed int64, in designInputs) oracleSample {
	rng := rand.New(rand.NewSource(seed))
	var cheap []int
	for bi, b := range in.benches {
		if b.Name == "sor" || b.Name == "fft" || b.Name == "tri" {
			cheap = append(cheap, bi)
		}
	}
	bi := cheap[rng.Intn(len(cheap))]
	var s oracleSample
	for _, ci := range rng.Perm(len(in.cfgs))[:2] {
		s.sweep = append(s.sweep, [2]int{bi, ci})
	}
	var paper, fleet []int
	for si, sp := range in.specs {
		if sp.Name == "paper" {
			paper = append(paper, si)
		} else {
			fleet = append(fleet, si)
		}
	}
	s.paper = append(s.paper, [2]int{bi, paper[rng.Intn(len(paper))]})
	for i := 0; i < 4; i++ {
		s.fleet = append(s.fleet, [2]int{rng.Intn(len(in.benches)), fleet[rng.Intn(len(fleet))]})
	}
	return s
}

// checkOracles re-measures the sample outside any timed interval and
// compares it with the grids' cells.
func checkOracles(r *run, in designInputs, sw *imtrans.SweepResult, cmp *imtrans.CompareResult, s oracleSample) {
	// Group the SimulateMeasure cells per kernel: one two-run simulation
	// measures all of a kernel's sampled configs at once.
	type cell struct {
		cfg  imtrans.Config
		want imtrans.Measurement
		enc  uint64
	}
	perBench := map[int][]cell{}
	for _, c := range s.sweep {
		m := sw.Measurements[c[0]][c[1]]
		perBench[c[0]] = append(perBench[c[0]], cell{cfg: in.cfgs[c[1]], want: m, enc: m.Encoded})
	}
	for _, c := range s.paper {
		m := cmp.Results[c[0]][c[1]]
		perBench[c[0]] = append(perBench[c[0]], cell{cfg: in.specs[c[1]].Config,
			want: imtrans.Measurement{Instructions: m.Instructions, Baseline: m.Baseline}, enc: m.Transitions})
	}
	for bi, cells := range perBench {
		cfgs := make([]imtrans.Config, len(cells))
		for i, c := range cells {
			cfgs[i] = c.cfg
		}
		b := in.benches[bi]
		ms, err := b.SimulateMeasure(cfgs...)
		r.res.Attempted += len(cells)
		if err != nil {
			r.fail("oracle %s: %v", b.Name, err)
			continue
		}
		for i, c := range cells {
			m := ms[i]
			if m.Instructions != c.want.Instructions || m.Baseline != c.want.Baseline || m.Encoded != c.enc {
				r.fail("oracle %s %+v: simulate (%d, %d, %d), grid (%d, %d, %d)", b.Name, c.cfg,
					m.Instructions, m.Baseline, m.Encoded, c.want.Instructions, c.want.Baseline, c.enc)
			}
		}
	}
	for _, c := range s.fleet {
		b, sp := in.benches[c[0]], in.specs[c[1]]
		m := cmp.Results[c[0]][c[1]]
		base, trans, err := fleetOracle(b, sp)
		r.res.Attempted++
		switch {
		case err != nil:
			r.fail("oracle %s %s: %v", b.Name, sp.Label(), err)
		case base != m.Baseline || trans != m.Transitions:
			r.fail("oracle %s %s: per-word (%d, %d), grid (%d, %d)", b.Name, sp.Label(), base, trans, m.Baseline, m.Transitions)
		}
	}
}

// fleetOracle measures one fleet cell word by word: through the
// internal/baseline coders for the schemes that have one (Bus-Invert, the
// dictionary, the Gray and T0 address codes), and through the fleet's
// scalar reference path for the codebook and limited-weight codes.
func fleetOracle(b imtrans.Benchmark, sp imtrans.SchemeSpec) (base, trans uint64, err error) {
	cap, err := cachedCapture(b)
	if err != nil {
		return 0, 0, err
	}
	width := sp.Config.BusWidth
	if width == 0 {
		width = 32
	}
	words := func(fn func(uint32)) { cap.Trace.Indices(func(idx int32) { fn(cap.Words[idx]) }) }
	switch sp.Name {
	case "businvert":
		bi := baseline.NewBusInvert(width)
		words(func(w uint32) { bi.Transfer(w) })
		return cap.BaselineTotal, bi.Total(), nil
	case "dictionary":
		entries := sp.Entries
		if entries == 0 {
			entries = 256
		}
		d := baseline.BuildDictionary(cap.Words, cap.Profile, entries)
		words(func(w uint32) { d.Transfer(w) })
		return cap.BaselineTotal, d.Transitions(), nil
	case "gray", "t0":
		a := addrBus(cap, width)
		if sp.Name == "gray" {
			return a.Binary(), a.Gray(), nil
		}
		return a.Binary(), a.T0(), nil
	}
	prev := imtrans.SetFleetBatchReplay(false)
	defer imtrans.SetFleetBatchReplay(prev)
	res, err := imtrans.CompareMeasureCtx(context.Background(), []imtrans.Benchmark{b}, []imtrans.SchemeSpec{sp}, imtrans.SweepOptions{Parallelism: 1})
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return 0, 0, err
	}
	m := res.Results[0][0]
	return m.Baseline, m.Transitions, nil
}

// addrBus drives the instruction address stream through the per-word
// address-bus coders.
func addrBus(cap *replay.Capture, width int) *baseline.AddrBus {
	a := baseline.NewAddrBus(width, 4)
	cap.Trace.Indices(func(idx int32) { a.Transfer(cap.Base + uint32(idx)*4) })
	return a
}
