package imtrans

import (
	"context"
	"fmt"
	"math/bits"

	"imtrans/internal/cfg"
	"imtrans/internal/core"
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
	cap, err := captureProgram(context.Background(), p, setup, "")
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

// TraceProgram profiles the program, plans the encoding, and replays
// execution with the decoder in the loop, returning the first maxFetches
// fetches annotated — the debugging view of what the bus and the decoder
// are doing cycle by cycle.
func TraceProgram(p *Program, setup func(Memory) error, c Config, maxFetches int) ([]TraceEntry, error) {
	if maxFetches <= 0 {
		maxFetches = 100
	}
	m1, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	if err := m1.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: trace profiling run: %w", err)
	}
	g, err := cfg.Build(p.TextBase, p.Text)
	if err != nil {
		return nil, err
	}
	enc, err := core.Encode(g, m1.Profile(), c.coreConfig())
	if err != nil {
		return nil, err
	}
	dec, err := hw.NewDecoder(enc)
	if err != nil {
		return nil, err
	}
	dec.Strict = true
	m2, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	var out []TraceEntry
	var last uint32
	have := false
	var hookErr error
	m2.OnFetch = func(pc, word uint32) {
		busWord := enc.EncodedWords[int(pc-p.TextBase)/4]
		restored, err := dec.OnFetch(pc, busWord)
		if err != nil && hookErr == nil {
			hookErr = err
		}
		if restored != word && hookErr == nil {
			hookErr = fmt.Errorf("imtrans: trace decoder mismatch at pc %#x", pc)
		}
		if len(out) < maxFetches {
			flips := 0
			if have {
				flips = bits.OnesCount32(busWord ^ last)
			}
			out = append(out, TraceEntry{
				PC:            pc,
				Instruction:   isa.Disassemble(word),
				Original:      word,
				Bus:           busWord,
				Flips:         flips,
				DecoderActive: dec.Active() || busWord != word,
			})
		}
		last, have = busWord, true
	}
	if err := m2.Run(); err != nil {
		return nil, fmt.Errorf("imtrans: trace run: %w", err)
	}
	if hookErr != nil {
		return nil, hookErr
	}
	return out, nil
}
