// Package trace models the instruction-memory data bus: it observes the
// dynamic fetch stream produced by the simulator and accumulates the 0<->1
// transition counts, in total and per bus line, that the paper's
// experiments report.
package trace

import "math/bits"

// Bus is a W-bit bus transition counter. Feed it every value transmitted,
// in order; it tracks the Hamming distance between consecutive values.
// The zero value is not ready to use; construct with NewBus.
type Bus struct {
	width   int
	last    uint32
	started bool
	total   uint64
	perLine []uint64
	words   uint64
}

// NewBus creates a bus model with the given width (1..32 lines).
func NewBus(width int) *Bus {
	if width < 1 {
		width = 1
	}
	if width > 32 {
		width = 32
	}
	return &Bus{width: width, perLine: make([]uint64, width)}
}

// Width returns the number of bus lines.
func (b *Bus) Width() int { return b.width }

// Transfer transmits one value and accumulates the transitions it causes.
// The first transfer establishes the initial bus state and causes none.
func (b *Bus) Transfer(v uint32) {
	b.words++
	if !b.started {
		b.started = true
		b.last = v
		return
	}
	diff := (v ^ b.last) & mask(b.width)
	b.total += uint64(bits.OnesCount32(diff))
	for diff != 0 {
		line := bits.TrailingZeros32(diff)
		b.perLine[line]++
		diff &= diff - 1
	}
	b.last = v
}

func mask(w int) uint32 {
	if w >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(w) - 1
}

// Total returns the accumulated transition count across all lines.
func (b *Bus) Total() uint64 { return b.total }

// PerLine returns a copy of the per-line transition counts.
func (b *Bus) PerLine() []uint64 {
	out := make([]uint64, len(b.perLine))
	copy(out, b.perLine)
	return out
}

// Words returns the number of values transferred.
func (b *Bus) Words() uint64 { return b.words }

// Last returns the current bus state and whether any transfer happened.
func (b *Bus) Last() (uint32, bool) { return b.last, b.started }

// Reset clears counters and bus state.
func (b *Bus) Reset() {
	b.last, b.started, b.total, b.words = 0, false, 0, 0
	for i := range b.perLine {
		b.perLine[i] = 0
	}
}
