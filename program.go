package imtrans

import (
	"errors"
	"fmt"

	"imtrans/internal/asm"
	"imtrans/internal/isa"
)

// Program is an assembled MR32 binary: a text segment of machine words, a
// data segment image, and the symbol table.
type Program struct {
	TextBase uint32
	Text     []uint32
	DataBase uint32
	Data     []byte
	Symbols  map[string]uint32
}

// Assemble translates MR32 assembly source into a Program. See the README
// for the supported dialect (standard MIPS mnemonics, .text/.data/.word/
// .float/.space/.asciiz directives, li/la/move/branch pseudo-instructions
// and a single-precision FP coprocessor).
func Assemble(source string) (*Program, error) {
	obj, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return &Program{
		TextBase: obj.TextBase,
		Text:     obj.TextWords,
		DataBase: obj.DataBase,
		Data:     obj.Data,
		Symbols:  obj.Symbols,
	}, nil
}

// Disassemble renders the text segment, one instruction per line, with
// addresses.
func (p *Program) Disassemble() []string {
	out := make([]string, len(p.Text))
	for i, w := range p.Text {
		out[i] = fmt.Sprintf("%08x:  %08x  %s", p.TextBase+uint32(4*i), w, isa.Disassemble(w))
	}
	return out
}

// Instructions returns the number of static instructions (0 for a nil
// program).
func (p *Program) Instructions() int {
	if p == nil {
		return 0
	}
	return len(p.Text)
}

// validate is the program gate: newMachine, planProgram, captureProgram,
// Deployment.matches, Save and RescheduleProgram call it, so every path
// that loads, plans, captures, saves or reschedules a program refuses a
// nil or empty one there, one way, before anything reads it.
func (p *Program) validate() error {
	if p.Instructions() == 0 {
		return errors.New("imtrans: empty program")
	}
	return nil
}
