package imtrans

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/hw"
	"imtrans/internal/isa"
	"imtrans/internal/replay"
)

// TraceEntry is one annotated instruction fetch of a measured run.
type TraceEntry struct {
	PC            uint32
	Instruction   string // disassembly of the original instruction
	Original      uint32 // original machine word
	Bus           uint32 // encoded word actually on the bus
	Flips         int    // bus-line transitions caused by this fetch
	DecoderActive bool   // fetch decoded inside a covered block
}

// TraceText profiles the program once (through the shared capture cache)
// and renders its compressed fetch trace in the canonical one-line text
// form ("imtrans-trace 1 <first> <n> <ops...>"). The rendering is
// round-tripped through the validating parser before it is returned, so
// the output always re-loads; arbitrary edits to it fail the parser's
// envelope and fetch-count checks instead of replaying short.
func TraceText(p *Program, setup func(Memory) error) ([]byte, error) {
	cap, err := captureProgram(context.Background(), target{p: p, setup: setup})
	if err != nil {
		return nil, err
	}
	text, err := cap.Trace.MarshalText()
	if err != nil {
		return nil, err
	}
	if _, err := replay.ParseTrace(text); err != nil {
		return nil, fmt.Errorf("imtrans: compressed trace failed validation: %w", err)
	}
	return text, nil
}

// TraceProgram plans the encoding from the program's profile and returns
// the first maxFetches fetches annotated — the debugging view of what the
// bus and the decoder are doing cycle by cycle. It reads the shared
// capture (see ReplayMeasure, whose setup contract applies): the paper
// replay drives a strict decoder over the whole fetch stream and checks
// every restored word, and a fresh strict decoder then annotates only the
// leading fetches.
func TraceProgram(p *Program, setup func(Memory) error, c Config, maxFetches int) ([]TraceEntry, error) {
	if maxFetches <= 0 {
		maxFetches = 100
	}
	cap, out, err := capturePaper(context.Background(), target{p: p, setup: setup}, c)
	if err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(out.Enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true
	var entries []TraceEntry
	var last uint32
	for n, idx := range leadingFetches(cap.Trace, maxFetches) {
		pc, word, busWord := cap.Base+uint32(idx)*4, cap.Words[idx], out.Enc.EncodedWords[idx]
		if _, err := dec.OnFetch(pc, busWord); err != nil {
			return nil, err
		}
		flips := 0
		if n > 0 {
			flips = bits.OnesCount32(busWord ^ last)
		}
		entries = append(entries, TraceEntry{
			PC:            pc,
			Instruction:   isa.Disassemble(word),
			Original:      word,
			Bus:           busWord,
			Flips:         flips,
			DecoderActive: dec.Active() || busWord != word,
		})
		last = busWord
	}
	return entries, nil
}

// leadingFetches returns the text indices of a trace's first n fetches
// (every fetch of a shorter run). It expands the trace's runs only as far
// as n reaches, where Trace.Indices walks the whole stream.
func leadingFetches(t *replay.Trace, n int) []int32 {
	n = min(n, int(t.N))
	if n <= 0 {
		return nil
	}
	out := make([]int32, 1, n)
	out[0] = t.First
	t.Runs(func(delta int32, count int64) bool {
		for idx := out[len(out)-1]; count > 0 && len(out) < n; count-- {
			idx += delta
			out = append(out, idx)
		}
		return len(out) < n
	})
	return out
}
