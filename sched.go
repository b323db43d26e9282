package imtrans

import (
	"context"

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
	if err := p.validate(); err != nil {
		return nil, nil, err
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

// MeasureModified runs the measurement pipeline on a caller-supplied
// variant of the benchmark's program (for example after
// RescheduleProgram), using the benchmark's memory setup. Like Measure,
// it goes through the capture/replay engine, and the variant's content
// hash keys its own cached capture. Its one profiling run also checks the
// variant's numerical output against the kernel's golden reference, with
// no option to skip: a variant that computes something else fails with a
// golden-check error, which the capture cache keeps like any other.
func (b Benchmark) MeasureModified(p *Program, cfgs ...Config) ([]Measurement, error) {
	cols, err := paperColumns(cfgs)
	if err != nil {
		return nil, err
	}
	return benchRun(b, func(t target) ([]Measurement, error) {
		t.p = p // the variant takes the kernel program's place
		return replayMeasureCtx(context.Background(), t, cols)
	})
}
