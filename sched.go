package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/sched"
)

// RescheduleStats summarises a transition-aware rescheduling pass.
type RescheduleStats struct {
	Blocks      int // basic blocks examined
	Rescheduled int // blocks whose instruction order changed
	Before      int // static vertical transitions before
	After       int // and after
}

// ReductionPercent is the static transition reduction from scheduling
// alone.
func (s RescheduleStats) ReductionPercent() float64 {
	if s.Before == 0 {
		return 0
	}
	return 100 * float64(s.Before-s.After) / float64(s.Before)
}

// RescheduleProgram applies transition-aware instruction scheduling: the
// compiler-side companion to the memory-side encoding. Independent
// instructions inside each basic block are reordered (all data, memory and
// control dependences honoured) to minimise consecutive-word Hamming
// distance. The returned program is semantically equivalent; note that
// symbol-table entries pointing into the middle of a block (never branch
// targets, which start blocks) may no longer name the same instruction.
func RescheduleProgram(p *Program) (*Program, *RescheduleStats, error) {
	if p == nil || len(p.Text) == 0 {
		return nil, nil, fmt.Errorf("imtrans: empty program")
	}
	out, st, err := sched.Program(p.TextBase, p.Text)
	if err != nil {
		return nil, nil, err
	}
	return &Program{
			TextBase: p.TextBase,
			Text:     out,
			DataBase: p.DataBase,
			Data:     p.Data,
			Symbols:  p.Symbols,
		}, &RescheduleStats{
			Blocks:      st.Blocks,
			Rescheduled: st.Rescheduled,
			Before:      st.Before,
			After:       st.After,
		}, nil
}

// RunProgram executes a caller-supplied variant of the benchmark's program
// (for example after RescheduleProgram) with the benchmark's memory setup,
// and validates the numerical result against the golden reference — the
// semantics check for program transformations.
func (b Benchmark) RunProgram(p *Program) (*RunResult, error) {
	mc, err := NewMachine(p)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	if err := b.setup(mc.Memory()); err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	res, err := mc.Run()
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	if err := b.w.Check(mc.Memory().m, b.params()); err != nil {
		return nil, fmt.Errorf("imtrans: %s: golden check: %w", b.Name, err)
	}
	return res, nil
}

// MeasureModified runs the measurement pipeline on a caller-supplied
// variant of the benchmark's program, using the benchmark's memory setup.
// Like Measure, it goes through the capture/replay engine; the variant's
// content hash keys its own cached capture.
func (b Benchmark) MeasureModified(p *Program, cfgs ...Config) ([]Measurement, error) {
	cols, err := paperColumns(cfgs)
	if err != nil {
		return nil, err
	}
	ms, err := replayMeasureCtx(context.Background(), p, b.setup, b.captureSalt(), cols)
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return ms, nil
}
