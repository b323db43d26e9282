// Package asm implements a two-pass assembler for the MR32 instruction
// set. It supports the directive and pseudo-instruction dialect the
// benchmark kernels are written in: .text/.data/.word/.float/.space/
// .asciiz/.align, labels, and the classic MIPS pseudo-instructions (li,
// la, move, b, beqz/bnez, blt/bge/bgt/ble, mul/div three-operand forms,
// neg, not, li.s, l.s/s.s).
package asm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"imtrans/internal/isa"
	"imtrans/internal/mem"
)

// Object is the output of assembling one source file: a text segment of
// machine words, a data segment image, and the symbol table.
type Object struct {
	TextBase  uint32
	TextWords []uint32
	TextLines []int // source line of each text word, for diagnostics
	DataBase  uint32
	Data      []byte
	Symbols   map[string]uint32
}

// relKind describes how a symbolic operand patches its instruction.
type relKind uint8

const (
	relNone   relKind = iota
	relBranch         // 16-bit PC-relative word offset
	relJump           // 26-bit absolute word target
	relHi16           // upper 16 bits of the symbol address
	relLo16           // lower 16 bits of the symbol address
)

// proto is a partially assembled instruction awaiting symbol resolution.
type proto struct {
	inst   isa.Inst
	rel    relKind
	sym    string
	addend int32
	line   int
}

// dataReloc patches a 32-bit slot of the data image with a symbol address.
type dataReloc struct {
	offset uint32
	sym    string
	addend int32
	line   int
}

type assembler struct {
	textBase uint32
	dataBase uint32
	protos   []proto
	data     []byte
	dataRels []dataReloc
	symbols  map[string]uint32
	consts   map[string]int32 // .equ definitions
	inData   bool
}

// evalInt evaluates an integer operand: a literal, or a constant defined
// earlier with .equ.
func (a *assembler) evalInt(s string) (int32, error) {
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	if v, ok := a.consts[strings.TrimSpace(s)]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("bad integer or unknown constant %q", s)
}

// isValue reports whether the operand evaluates to an integer (literal or
// .equ constant) rather than a label reference.
func (a *assembler) isValue(s string) bool {
	_, err := a.evalInt(s)
	return err == nil
}

// dataInt evaluates a data-directive operand that is an integer literal
// or an .equ constant, and checks it against [lo, hi] before it is
// truncated to the directive's width: a literal as written, a constant as
// its 32-bit value. ok is false when op is neither, which leaves .word a
// symbol reference.
func (a *assembler) dataInt(op string, lo, hi int64) (v int64, ok bool, err error) {
	s := strings.TrimSpace(op)
	v, err = strconv.ParseInt(s, 0, 64)
	if errors.Is(err, strconv.ErrSyntax) {
		c, isConst := a.consts[s]
		if !isConst {
			return 0, false, fmt.Errorf("bad integer or unknown constant %q", s)
		}
		v, err = int64(c), nil
		s = fmt.Sprintf("%s (%d)", s, c)
	}
	if err != nil || v < lo || v > hi {
		return 0, true, fmt.Errorf("value %s out of range [%d, %d]", s, lo, hi)
	}
	return v, true, nil
}

// Assemble translates MR32 assembly source into an Object. The text
// segment is placed at mem.TextBase and data at mem.DataBase unless the
// source overrides them with ".text addr" / ".data addr".
func Assemble(src string) (*Object, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	a := &assembler{
		textBase: mem.TextBase,
		dataBase: mem.DataBase,
		symbols:  make(map[string]uint32),
		consts:   make(map[string]int32),
	}
	// Pass 1: expand instructions, lay out data, bind labels.
	for _, ln := range lines {
		for _, lab := range ln.labels {
			if err := a.bind(lab, ln.num); err != nil {
				return nil, err
			}
		}
		if ln.mnemonic == "" {
			continue
		}
		if strings.HasPrefix(ln.mnemonic, ".") {
			if err := a.directive(ln); err != nil {
				return nil, err
			}
			continue
		}
		if a.inData {
			return nil, fmt.Errorf("line %d: instruction %q inside .data segment", ln.num, ln.mnemonic)
		}
		if err := a.instruction(ln); err != nil {
			return nil, err
		}
	}
	// Pass 2: resolve symbols and encode.
	obj := &Object{
		TextBase:  a.textBase,
		TextWords: make([]uint32, len(a.protos)),
		TextLines: make([]int, len(a.protos)),
		DataBase:  a.dataBase,
		Data:      a.data,
		Symbols:   a.symbols,
	}
	for i, p := range a.protos {
		pc := a.textBase + uint32(4*i)
		in := p.inst
		if p.rel != relNone {
			addr, ok := a.symbols[p.sym]
			if !ok {
				return nil, fmt.Errorf("line %d: undefined symbol %q", p.line, p.sym)
			}
			addr += uint32(p.addend)
			switch p.rel {
			case relBranch:
				diff := int64(addr) - int64(pc+4)
				if diff&3 != 0 {
					return nil, fmt.Errorf("line %d: misaligned branch target %q", p.line, p.sym)
				}
				off := diff >> 2
				if off < -32768 || off > 32767 {
					return nil, fmt.Errorf("line %d: branch target %q out of range", p.line, p.sym)
				}
				in.Imm = int32(off)
			case relJump:
				if addr&3 != 0 {
					return nil, fmt.Errorf("line %d: misaligned jump target %q", p.line, p.sym)
				}
				in.Target = addr >> 2 & 0x03ffffff
			case relHi16:
				in.Imm = int32(addr >> 16)
			case relLo16:
				in.Imm = int32(addr & 0xffff)
			}
		}
		word, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", p.line, err)
		}
		obj.TextWords[i] = word
		obj.TextLines[i] = p.line
	}
	for _, r := range a.dataRels {
		addr, ok := a.symbols[r.sym]
		if !ok {
			return nil, fmt.Errorf("line %d: undefined symbol %q", r.line, r.sym)
		}
		v := addr + uint32(r.addend)
		for b := uint32(0); b < 4; b++ {
			a.data[r.offset+b] = byte(v >> (8 * b))
		}
	}
	return obj, nil
}

func (a *assembler) pc() uint32 { return a.textBase + uint32(4*len(a.protos)) }

func (a *assembler) bind(label string, lineNum int) error {
	if _, dup := a.symbols[label]; dup {
		return fmt.Errorf("line %d: duplicate label %q", lineNum, label)
	}
	if a.inData {
		a.symbols[label] = a.dataBase + uint32(len(a.data))
	} else {
		a.symbols[label] = a.pc()
	}
	return nil
}

func (a *assembler) directive(ln line) error {
	switch ln.mnemonic {
	case ".text":
		a.inData = false
		if len(ln.operands) == 1 {
			if len(a.protos) > 0 {
				return fmt.Errorf("line %d: .text base after instructions", ln.num)
			}
			v, err := parseInt(ln.operands[0])
			if err != nil {
				return fmt.Errorf("line %d: %v", ln.num, err)
			}
			a.textBase = uint32(v)
		}
	case ".data":
		a.inData = true
		if len(ln.operands) == 1 {
			if len(a.data) > 0 {
				return fmt.Errorf("line %d: .data base after data", ln.num)
			}
			v, err := parseInt(ln.operands[0])
			if err != nil {
				return fmt.Errorf("line %d: %v", ln.num, err)
			}
			a.dataBase = uint32(v)
		}
	case ".globl", ".global", ".ent", ".end", ".set":
		// Accepted and ignored for source compatibility.
	case ".equ", ".eqv":
		if len(ln.operands) != 2 {
			return fmt.Errorf("line %d: .equ wants a name and a value", ln.num)
		}
		name := strings.TrimSpace(ln.operands[0])
		if name == "" || isNumeric(name) {
			return fmt.Errorf("line %d: bad constant name %q", ln.num, name)
		}
		if _, dup := a.consts[name]; dup {
			return fmt.Errorf("line %d: duplicate constant %q", ln.num, name)
		}
		v, err := a.evalInt(ln.operands[1])
		if err != nil {
			return fmt.Errorf("line %d: %v", ln.num, err)
		}
		a.consts[name] = v
	case ".word":
		if !a.inData {
			return fmt.Errorf("line %d: .word outside .data", ln.num)
		}
		for _, op := range ln.operands {
			v, ok, err := a.dataInt(op, math.MinInt32, math.MaxUint32)
			if ok {
				if err != nil {
					return fmt.Errorf("line %d: .word %v", ln.num, err)
				}
				a.emitWord(uint32(v))
			} else {
				sym, add, err := symbolRef(op)
				if err != nil {
					return fmt.Errorf("line %d: %v", ln.num, err)
				}
				a.dataRels = append(a.dataRels, dataReloc{uint32(len(a.data)), sym, add, ln.num})
				a.emitWord(0)
			}
		}
	case ".half":
		if !a.inData {
			return fmt.Errorf("line %d: .half outside .data", ln.num)
		}
		for _, op := range ln.operands {
			v, _, err := a.dataInt(op, math.MinInt16, math.MaxUint16)
			if err != nil {
				return fmt.Errorf("line %d: .half %v", ln.num, err)
			}
			a.data = append(a.data, byte(v), byte(v>>8))
		}
	case ".byte":
		if !a.inData {
			return fmt.Errorf("line %d: .byte outside .data", ln.num)
		}
		for _, op := range ln.operands {
			v, _, err := a.dataInt(op, math.MinInt8, math.MaxUint8)
			if err != nil {
				return fmt.Errorf("line %d: .byte %v", ln.num, err)
			}
			a.data = append(a.data, byte(v))
		}
	case ".float":
		if !a.inData {
			return fmt.Errorf("line %d: .float outside .data", ln.num)
		}
		for _, op := range ln.operands {
			f, err := strconv.ParseFloat(strings.TrimSpace(op), 32)
			if err != nil {
				return fmt.Errorf("line %d: bad float %q", ln.num, op)
			}
			a.emitWord(math.Float32bits(float32(f)))
		}
	case ".space":
		if !a.inData {
			return fmt.Errorf("line %d: .space outside .data", ln.num)
		}
		if len(ln.operands) != 1 {
			return fmt.Errorf("line %d: .space wants one operand", ln.num)
		}
		n, err := a.evalInt(ln.operands[0])
		if err != nil || n < 0 {
			return fmt.Errorf("line %d: bad .space size %q", ln.num, ln.operands[0])
		}
		a.data = append(a.data, make([]byte, n)...)
	case ".ascii", ".asciiz":
		if !a.inData {
			return fmt.Errorf("line %d: %s outside .data", ln.num, ln.mnemonic)
		}
		if len(ln.operands) != 1 {
			return fmt.Errorf("line %d: %s wants one string", ln.num, ln.mnemonic)
		}
		s, err := unquote(ln.operands[0])
		if err != nil {
			return fmt.Errorf("line %d: %v", ln.num, err)
		}
		a.data = append(a.data, s...)
		if ln.mnemonic == ".asciiz" {
			a.data = append(a.data, 0)
		}
	case ".align":
		if len(ln.operands) != 1 {
			return fmt.Errorf("line %d: .align wants one operand", ln.num)
		}
		n, err := parseInt(ln.operands[0])
		if err != nil || n < 0 || n > 12 {
			return fmt.Errorf("line %d: bad alignment %q", ln.num, ln.operands[0])
		}
		if a.inData {
			align := 1 << uint(n)
			for len(a.data)%align != 0 {
				a.data = append(a.data, 0)
			}
		}
	default:
		return fmt.Errorf("line %d: unknown directive %q", ln.num, ln.mnemonic)
	}
	return nil
}

func (a *assembler) emitWord(v uint32) {
	a.data = append(a.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *assembler) emit(p proto, lineNum int) {
	p.line = lineNum
	a.protos = append(a.protos, p)
}
