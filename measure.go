package imtrans

import (
	"fmt"

	"imtrans/internal/baseline"
	"imtrans/internal/core"
	"imtrans/internal/hw"
	"imtrans/internal/power"
	"imtrans/internal/scheme"
	"imtrans/internal/trace"
)

// Config selects the encoding parameters of one measurement, mirroring the
// paper's design space. The zero value is the paper's default evaluation
// point: block size 5, a 16-entry TT, the canonical 8 transformations,
// greedy chaining, a 32-bit bus.
type Config struct {
	BlockSize    int  // k (2..16); 0 means 5
	TTEntries    int  // transformation-table capacity; 0 means 16
	BBITEntries  int  // covered-basic-block capacity; 0 means 16
	AllFunctions bool // search all 16 transformations (4-bit selectors)
	Exact        bool // exact DP chaining instead of the paper's greedy
	Knapsack     bool // exact TT allocation instead of hottest-first
	BusWidth     int  // bus lines modelled; 0 means 32
}

// schemeParams maps the Config onto the pluggable-scheme parameter union;
// the core.Config mapping itself lives in internal/scheme, next to the
// registered paper backend, so both paths share one definition.
func (c Config) schemeParams() scheme.Params {
	return scheme.Params{
		BlockSize:    c.BlockSize,
		TTEntries:    c.TTEntries,
		BBITEntries:  c.BBITEntries,
		AllFunctions: c.AllFunctions,
		Exact:        c.Exact,
		Knapsack:     c.Knapsack,
		BusWidth:     c.BusWidth,
	}
}

func (c Config) coreConfig() core.Config {
	return scheme.CoreConfig(c.schemeParams())
}

// validate checks c against the paper scheme's ConfigSpace, as a paper
// SchemeSpec is checked. Every root path that hands a Config to core
// calls it before it profiles or encodes anything.
func (c Config) validate() error { return SchemeSpec{Name: "paper", Config: c}.Validate() }

// String renders the configuration compactly.
func (c Config) String() string { return scheme.PaperSpec(c.schemeParams()) }

// Measurement reports the dynamic instruction-bus behaviour of one
// configuration, measured with the decoder hardware model in the fetch
// loop and every restored instruction verified against the original.
type Measurement struct {
	Config       Config
	Instructions uint64

	Baseline uint64  // bus transitions without encoding
	Encoded  uint64  // bus transitions with the power encoding
	Percent  float64 // reduction, percent (the paper's headline number)

	BusInvert        uint64  // bus-invert transitions on the same stream (incl. invert line)
	BusInvertPercent float64 // bus-invert reduction vs baseline

	// Dictionary-compression comparator (256 most frequent instructions,
	// hit flag + index lines driven, misses raw) on the same stream, and
	// the decompression-table storage it needs at the processor side.
	Dictionary        uint64
	DictionaryPercent float64
	DictionaryBits    int

	CoveragePercent float64 // dynamic fetches from covered blocks
	CoveredBlocks   int
	TTEntriesUsed   int
	StaticPercent   float64 // static (layout-order) reduction in covered blocks

	OverheadBits int // decoder storage (TT + BBIT)

	EnergySavedOnChipJ  float64 // energy saved with the on-chip bus model
	EnergySavedOffChipJ float64 // and with the off-chip (cross-pin) model

	// Per-bus-line transition counts, baseline and encoded — the
	// "vertical" view the technique operates on (line 0 first).
	PerLineBaseline []uint64
	PerLineEncoded  []uint64
}

// ReductionPercent is Percent under its headline name.
func (m Measurement) ReductionPercent() float64 { return m.Percent }

// MeasureProgram runs the full experimental pipeline on a program:
//
//  1. a profiling run measures baseline bus transitions, the bus-invert
//     comparator, and the per-instruction execution profile;
//  2. each configuration's encoding is planned from the profile and
//     statically verified;
//  3. a second, identical execution measures every configuration's encoded
//     bus simultaneously, with the fetch-side decoder model restoring each
//     instruction and the harness checking it against the original word.
//
// setup, if non-nil, initialises data memory before each run (both runs
// must see identical input so the fetch streams coincide).
func MeasureProgram(p *Program, setup func(Memory) error, cfgs ...Config) ([]Measurement, error) {
	if len(cfgs) == 0 {
		cfgs = []Config{{}}
	}
	for _, c := range cfgs {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	// Run 1: profile + baseline.
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	baseBus := trace.NewBus(32)
	busInv := baseline.NewBusInvert(32)
	m1.OnFetch = func(pc, word uint32) {
		baseBus.Transfer(word)
		busInv.Transfer(word)
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: profiling run: %w", err)
	}
	profile := m1.Profile()
	dict := baseline.BuildDictionary(p.Text, profile, 256)

	// Plan and statically verify every configuration.
	type sink struct {
		cfg Config
		enc *core.Encoding
		dec *hw.Decoder
		bus *trace.Bus
	}
	sinks := make([]*sink, len(cfgs))
	for i, c := range cfgs {
		enc, dec, err := planProgram(p, profile, c)
		if err != nil {
			return nil, &contextError{context: c.String(), err: err}
		}
		dec.Strict = true
		sinks[i] = &sink{cfg: c, enc: enc, dec: dec, bus: trace.NewBus(32)}
	}

	// Run 2: measure all encoded buses in one simulation.
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	var hookErr error
	base := p.TextBase
	m2.OnFetch = func(pc, word uint32) {
		idx := int(pc-base) / 4
		dict.Transfer(word)
		for _, s := range sinks {
			busWord := s.enc.EncodedWords[idx]
			s.bus.Transfer(busWord)
			restored, err := s.dec.OnFetch(pc, busWord)
			if err != nil && hookErr == nil {
				hookErr = fmt.Errorf("imtrans: %v: %w", s.cfg, err)
			}
			if restored != word && hookErr == nil {
				hookErr = fmt.Errorf("imtrans: %v: decoder restored %#08x at pc %#x, want %#08x",
					s.cfg, restored, pc, word)
			}
		}
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: measurement run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	if m2.InstCount != m1.InstCount {
		return nil, fmt.Errorf("imtrans: runs diverged (%d vs %d instructions); setup must be deterministic",
			m1.InstCount, m2.InstCount)
	}

	out := make([]Measurement, len(sinks))
	for i, s := range sinks {
		res := Measurement{
			Config:          s.cfg,
			Instructions:    m2.InstCount,
			Baseline:        baseBus.Total(),
			Encoded:         s.bus.Total(),
			BusInvert:       busInv.Total(),
			CoveragePercent: s.enc.Coverage(),
			CoveredBlocks:   len(s.enc.Plans),
			TTEntriesUsed:   s.enc.TTUsed,
			StaticPercent:   s.enc.StaticReduction(),
			OverheadBits:    s.dec.Overhead().TotalBits,
			PerLineBaseline: baseBus.PerLine(),
			PerLineEncoded:  s.bus.PerLine(),
		}
		res.Dictionary = dict.Transitions()
		res.DictionaryBits = dict.TableBits()
		res.Percent = power.Reduction(res.Baseline, res.Encoded)
		res.BusInvertPercent = power.Reduction(res.Baseline, res.BusInvert)
		res.DictionaryPercent = power.Reduction(res.Baseline, res.Dictionary)
		res.EnergySavedOnChipJ, _ = power.OnChip.Saved(res.Baseline, res.Encoded)
		res.EnergySavedOffChipJ, _ = power.OffChip.Saved(res.Baseline, res.Encoded)
		out[i] = res
	}
	return out, nil
}
