package imtrans

import (
	"fmt"

	"imtrans/internal/baseline"
	"imtrans/internal/power"
	"imtrans/internal/trace"
)

// DataBusReport measures the data-memory value bus of one run — the bus
// the paper's technique deliberately does *not* target, because the values
// travelling there depend on program input and cannot be statically
// re-encoded. General-purpose Bus-Invert still applies, so the report
// includes it as the appropriate coding for that bus, completing the
// system picture: application-specific transformations for the
// instruction bus, generic codes for data and address buses.
type DataBusReport struct {
	Accesses uint64 // loads + stores observed
	Loads    uint64
	Stores   uint64

	Transitions      uint64  // raw 32-bit value-bus transitions
	BusInvert        uint64  // bus-invert transitions (incl. invert line)
	BusInvertPercent float64 // reduction vs raw
}

// MeasureDataBus simulates the program once and measures the data-memory
// value bus raw and under Bus-Invert coding.
func MeasureDataBus(p *Program, setup func(Memory) error) (*DataBusReport, error) {
	m, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	bus := trace.NewBus(32)
	inv := baseline.NewBusInvert(32)
	rep := &DataBusReport{}
	m.OnData = func(addr, value uint32, store bool) {
		rep.Accesses++
		if store {
			rep.Stores++
		} else {
			rep.Loads++
		}
		bus.Transfer(value)
		inv.Transfer(value)
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: data-bus run: %w", err)
	}
	rep.Transitions = bus.Total()
	rep.BusInvert = inv.Total()
	rep.BusInvertPercent = power.Reduction(rep.Transitions, rep.BusInvert)
	return rep, nil
}

// MeasureDataBus runs the data-bus study on the benchmark.
func (b Benchmark) MeasureDataBus() (*DataBusReport, error) {
	return benchRun(b, func(t target) (*DataBusReport, error) { return MeasureDataBus(t.p, t.setup) })
}
