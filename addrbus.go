package imtrans

import (
	"context"
	"fmt"

	"imtrans/internal/power"
)

// AddressBusReport measures the instruction-*address* bus of one program
// run under the related-work codings the paper discusses (Section 2):
// plain binary, Gray code, and the T0 scheme with its redundant INC line.
// Address streams are dominated by sequentiality, so generic codes excel
// there; the data bus — the paper's target — has no such structure, which
// is why it needs the application-specific transformations instead.
type AddressBusReport struct {
	Fetches uint64
	Binary  uint64 // plain binary address-bus transitions
	Gray    uint64 // Gray-coded (word-index) transitions
	T0      uint64 // T0 transitions including the INC line

	GrayPercent float64 // reduction vs binary
	T0Percent   float64
}

// MeasureAddressBus measures the program's fetch address stream under all
// three address codings. It reads the shared capture (see ReplayMeasure,
// whose setup contract applies) through the registered gray and t0 fleet
// schemes, whose baseline is the binary address bus.
func MeasureAddressBus(p *Program, setup func(Memory) error) (*AddressBusReport, error) {
	return measureAddressBus(p, setup, "")
}

// measureAddressBus is MeasureAddressBus over the capture cached under
// salt.
func measureAddressBus(p *Program, setup func(Memory) error, salt string) (*AddressBusReport, error) {
	ctx := context.Background()
	cap, err := captureProgram(ctx, p, setup, salt)
	if err != nil {
		return nil, err
	}
	res, err := measureDefaults(ctx, cap, "gray", "t0")
	if err != nil {
		return nil, err
	}
	binary, gray, t0 := res[0].Baseline, res[0].Transitions, res[1].Transitions
	return &AddressBusReport{
		Fetches:     cap.Instructions,
		Binary:      binary,
		Gray:        gray,
		T0:          t0,
		GrayPercent: power.Reduction(binary, gray),
		T0Percent:   power.Reduction(binary, t0),
	}, nil
}

// MeasureAddressBus runs the address-bus study on the benchmark, over the
// capture its Measure calls share.
func (b Benchmark) MeasureAddressBus() (*AddressBusReport, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	r, err := measureAddressBus(p, b.setup, b.captureSalt())
	if err != nil {
		return nil, fmt.Errorf("imtrans: %s: %w", b.Name, err)
	}
	return r, nil
}
