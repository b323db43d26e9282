package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/power"
	"imtrans/internal/trace"
)

// PhasedMeasurement reports the paper's Section 7.1 software-reprogramming
// alternative: instead of one table image serving the whole program, the
// firmware reloads the Transformation Table before entering each
// application hot spot (here: each outermost natural loop). Every phase
// gets the full TT capacity to itself, so programs with several hot loops
// that cannot share a small TT recover coverage — at the cost of the table
// uploads counted here.
type PhasedMeasurement struct {
	Config Config
	Phases int // outermost loops encoded

	Instructions uint64
	Baseline     uint64
	Encoded      uint64
	Percent      float64

	SinglePercent float64 // the one-deployment reference on the same run

	Switches     uint64 // runtime phase changes
	UploadWords  uint64 // total 32-bit table writes across all switches
	TTEntriesMax int    // largest per-phase TT usage
}

// MeasurePhased runs the phase-switched pipeline: outermost loops are
// detected from the CFG, each is encoded independently with the full table
// budget, and a walk of the fetch stream switches decoder tables whenever
// it enters a block owned by a different phase, checking every restored
// word. The single-deployment measurement on the same program is included
// for comparison. It reads the shared capture (see ReplayMeasure, whose
// setup contract applies): the CFG, the profile, the baseline, the
// single-deployment replay and the fetch stream the phased walk follows.
func MeasurePhased(p *Program, setup func(Memory) error, c Config) (*PhasedMeasurement, error) {
	cap, single, err := capturePaper(context.Background(), target{p: p, setup: setup}, c)
	if err != nil {
		return nil, err
	}
	g, profile := cap.Graph, cap.Profile

	// One encoding per outermost loop: restrict the profile to the loop's
	// blocks so each phase competes only with itself for table capacity.
	type phase struct {
		enc *core.Encoding
		dec *hw.Decoder
	}
	var phases []phase
	blockPhase := map[int]int{} // cfg block index -> phase index
	merged := append([]uint32(nil), cap.Words...)
	for _, loop := range g.OutermostLoops() {
		masked := make([]uint64, len(profile))
		for _, bi := range loop.Blocks {
			b := g.Blocks[bi]
			start := int(b.Start-g.Base) / 4
			copy(masked[start:start+b.Count], profile[start:start+b.Count])
		}
		// planProgram builds p's CFG again, with g's block numbering.
		enc, dec, err := planProgram(p, masked, c)
		if err != nil {
			return nil, err
		}
		if len(enc.Plans) == 0 {
			continue // loop never ran or has nothing encodable
		}
		dec.Strict = true
		pi := len(phases)
		for _, plan := range enc.Plans {
			if prev, dup := blockPhase[plan.Block]; dup {
				return nil, fmt.Errorf("imtrans: block %d claimed by phases %d and %d", plan.Block, prev, pi)
			}
			blockPhase[plan.Block] = pi
			start := int(plan.StartPC-g.Base) / 4
			copy(merged[start:start+plan.Count], plan.Encoded)
		}
		phases = append(phases, phase{enc, dec})
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("imtrans: no encodable loops found")
	}
	// Start-PC dispatch: entering a covered block may switch phases.
	phaseAt := map[uint32]int{}
	for bi, pi := range blockPhase {
		phaseAt[g.Blocks[bi].Start] = pi
	}

	// The phase-switched walk. Every entry into a phase other than the
	// currently loaded one costs that phase's table upload.
	perPhaseUpload := make([]uint64, len(phases))
	for i, ph := range phases {
		perPhaseUpload[i] = uint64(ph.dec.Overhead().UploadWords)
	}
	encBus := trace.NewBus(32)
	current := -1
	var switches, uploads uint64
	var walkErr error
	cap.Trace.Indices(func(idx int32) {
		pc, word, busWord := cap.Base+uint32(idx)*4, cap.Words[idx], merged[idx]
		encBus.Transfer(busWord)
		if pi, ok := phaseAt[pc]; ok && pi != current {
			if current >= 0 {
				switches++
			}
			uploads += perPhaseUpload[pi]
			current = pi
		}
		if current < 0 {
			return // before the first hot spot: everything passes through
		}
		restored, err := phases[current].dec.OnFetch(pc, busWord)
		if err != nil && walkErr == nil {
			walkErr = err
		}
		if restored != word && walkErr == nil {
			walkErr = fmt.Errorf("imtrans: phase %d restored %#08x at pc %#x, want %#08x",
				current, restored, pc, word)
		}
	})
	if walkErr != nil {
		return nil, walkErr
	}

	res := &PhasedMeasurement{
		Config:        c,
		Phases:        len(phases),
		Instructions:  cap.Instructions,
		Baseline:      cap.BaselineTotal,
		Encoded:       encBus.Total(),
		SinglePercent: power.Reduction(cap.BaselineTotal, single.Rep.Encoded),
		Switches:      switches,
	}
	res.Percent = power.Reduction(res.Baseline, res.Encoded)
	res.UploadWords = uploads
	for _, ph := range phases {
		if ph.enc.TTUsed > res.TTEntriesMax {
			res.TTEntriesMax = ph.enc.TTUsed
		}
	}
	return res, nil
}
