package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/cfg"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/transform"
)

// PlanInfo describes the encoding of one covered basic block.
type PlanInfo struct {
	StartPC      uint32
	Instructions int
	Heat         uint64 // dynamic instructions contributed by the block
	TTStart      int    // first transformation-table entry
	TTEntries    int    // entries consumed
	TailCT       int    // CT field of the tail entry
	StaticBefore int    // vertical transitions before encoding
	StaticAfter  int    // and after
	// Transformations lists, per TT entry, the per-line transformation
	// names in bus-line order (line 0 first).
	Transformations [][]string
}

// EncodingReport is the static view of a planned encoding: which blocks
// are covered, the table contents, the hardware overhead, and the encoded
// text image.
type EncodingReport struct {
	Config          Config
	Plans           []PlanInfo
	TTEntriesUsed   int
	CoveragePercent float64
	StaticPercent   float64
	EncodedText     []uint32

	// Hardware overhead, from the decoder model.
	OverheadBits int
	TTBits       int
	BBITBits     int
	SelectorBits int
	GatesPerLine int
	UploadWords  int // 32-bit writes needed to program the tables
}

// EncodeProgram plans the power encoding of a program from a profile (as
// ProfileProgram or Machine.Run returns it) without running the dynamic
// measurement. The encoding is statically verified before returning.
func EncodeProgram(p *Program, profile []uint64, c Config) (*EncodingReport, error) {
	enc, dec, err := planProgram(p, profile, c)
	if err != nil {
		return nil, err
	}
	o := dec.Overhead()
	rep := &EncodingReport{
		Config:          c,
		TTEntriesUsed:   enc.TTUsed,
		CoveragePercent: enc.Coverage(),
		StaticPercent:   enc.StaticReduction(),
		EncodedText:     enc.EncodedWords,
		OverheadBits:    o.TotalBits,
		TTBits:          o.TTBits,
		BBITBits:        o.BBITBits,
		SelectorBits:    o.SelectorBits,
		GatesPerLine:    o.GatesPerLine,
		UploadWords:     o.UploadWords,
	}
	for _, plan := range enc.Plans {
		pi := PlanInfo{
			StartPC:      plan.StartPC,
			Instructions: plan.Count,
			Heat:         plan.Heat,
			TTStart:      plan.TTStart,
			TTEntries:    plan.TTCount,
			TailCT:       plan.TailCT,
			StaticBefore: plan.OrigTransitions,
			StaticAfter:  plan.CodeTransitions,
		}
		for _, entry := range plan.Taus {
			names := make([]string, len(entry))
			for line, f := range entry {
				names[line] = f.String()
			}
			pi.Transformations = append(pi.Transformations, names)
		}
		rep.Plans = append(rep.Plans, pi)
	}
	return rep, nil
}

// planProgram is the planning step behind EncodeProgram, BuildDeployment
// and MeasurePhased: it checks p and c, encodes p's text under profile,
// statically verifies the encoding and builds its decoder.
func planProgram(p *Program, profile []uint64, c Config) (*core.Encoding, *hw.Decoder, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, nil, err
	}
	enc, err := core.Encode(g, profile, c.coreConfig())
	if err != nil {
		return nil, nil, err
	}
	if err := enc.Verify(); err != nil {
		return nil, nil, fmt.Errorf("imtrans: static verification: %w", err)
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, nil, err
	}
	return enc, dec, nil
}

// Encode plans the power encoding of the benchmark at its configured
// scale. The execution profile comes from the shared capture cache — one
// profiling simulation per (kernel, scale) across the whole process — so
// repeated Encode calls (a busy encoding service, say) never re-simulate.
func (b Benchmark) Encode(c Config) (*EncodingReport, error) {
	return b.EncodeCtx(context.Background(), c)
}

// EncodeCtx is Encode with cooperative cancellation: a profiling run it
// has to make polls ctx, and a cancelled one returns ctx.Err() wrapped.
func (b Benchmark) EncodeCtx(ctx context.Context, c Config) (*EncodingReport, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return benchRun(b, func(t target) (*EncodingReport, error) {
		cap, err := captureProgram(ctx, t)
		if err != nil {
			return nil, err
		}
		return EncodeProgram(t.p, cap.Profile, c)
	})
}

// TransformationNames returns the canonical 8-function set in hardware
// selector order, as analytic strings (x is the encoded bit, y the
// one-bit history).
func TransformationNames() []string {
	out := make([]string, len(transform.Canonical8))
	for i, f := range transform.Canonical8 {
		out[i] = f.String()
	}
	return out
}
