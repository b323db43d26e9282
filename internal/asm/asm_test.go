package asm

import (
	"bytes"
	"strings"
	"testing"

	"imtrans/internal/isa"
	"imtrans/internal/mem"
)

func mustAssemble(t *testing.T, src string) *Object {
	t.Helper()
	obj, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return obj
}

func disasm(t *testing.T, obj *Object) []string {
	t.Helper()
	out := make([]string, len(obj.TextWords))
	for i, w := range obj.TextWords {
		out[i] = isa.Disassemble(w)
	}
	return out
}

func TestAssembleBasic(t *testing.T) {
	obj := mustAssemble(t, `
		.text
	main:
		addiu $t0, $zero, 5
		addiu $t1, $zero, 7
		addu  $t2, $t0, $t1
		syscall
	`)
	want := []string{
		"addiu $t0, $zero, 5",
		"addiu $t1, $zero, 7",
		"addu $t2, $t0, $t1",
		"syscall",
	}
	got := disasm(t, obj)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: %q, want %q", i, got[i], want[i])
		}
	}
	if obj.TextBase != mem.TextBase {
		t.Errorf("text base %#x", obj.TextBase)
	}
	if obj.Symbols["main"] != mem.TextBase {
		t.Errorf("main = %#x", obj.Symbols["main"])
	}
}

func TestBranchResolution(t *testing.T) {
	obj := mustAssemble(t, `
	loop:
		addiu $t0, $t0, -1
		bne   $t0, $zero, loop
		beq   $zero, $zero, done
		nop
	done:
		syscall
	`)
	// bne at word 1: target loop (word 0) -> offset = (0 - 2) = -2
	in, err := isa.Decode(obj.TextWords[1])
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != -2 {
		t.Errorf("bne offset = %d, want -2", in.Imm)
	}
	// beq at word 2: done is word 4 -> offset = 4 - 3 = 1
	in, _ = isa.Decode(obj.TextWords[2])
	if in.Imm != 1 {
		t.Errorf("beq offset = %d, want 1", in.Imm)
	}
}

func TestJumpResolution(t *testing.T) {
	obj := mustAssemble(t, `
	start:
		j end
		nop
	end:
		jal start
		syscall
	`)
	in, _ := isa.Decode(obj.TextWords[0])
	if got, want := in.Target<<2, obj.Symbols["end"]&0x0fffffff; got != want {
		t.Errorf("j target %#x, want %#x", got, want)
	}
	in, _ = isa.Decode(obj.TextWords[2])
	if got, want := in.Target<<2, obj.Symbols["start"]&0x0fffffff; got != want {
		t.Errorf("jal target %#x, want %#x", got, want)
	}
}

func TestLoadImmediateForms(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"li $t0, 5", []string{"addiu $t0, $zero, 5"}},
		{"li $t0, -5", []string{"addiu $t0, $zero, -5"}},
		{"li $t0, 0x8000", []string{"ori $t0, $zero, 32768"}},
		{"li $t0, 0x12340000", []string{"lui $t0, 4660"}},
		{"li $t0, 0x12345678", []string{"lui $t0, 4660", "ori $t0, $t0, 22136"}},
		{"li $t0, -40000", []string{"lui $t0, 65535", "ori $t0, $t0, 25536"}},
	}
	for _, c := range cases {
		obj := mustAssemble(t, c.src)
		got := disasm(t, obj)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d words, want %d (%v)", c.src, len(got), len(c.want), got)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s word %d: %q, want %q", c.src, i, got[i], c.want[i])
			}
		}
	}
}

func TestLoadAddress(t *testing.T) {
	obj := mustAssemble(t, `
		.data
	buf:	.space 64
	val:	.word 42
		.text
		la $t0, val
		lw $t1, 0($t0)
	`)
	valAddr := obj.Symbols["val"]
	if valAddr != mem.DataBase+64 {
		t.Fatalf("val = %#x", valAddr)
	}
	in, _ := isa.Decode(obj.TextWords[0]) // lui $at, hi
	if uint32(in.Imm) != valAddr>>16 {
		t.Errorf("lui imm %#x, want %#x", in.Imm, valAddr>>16)
	}
	in, _ = isa.Decode(obj.TextWords[1]) // ori $t0, $at, lo
	if uint32(in.Imm) != valAddr&0xffff {
		t.Errorf("ori imm %#x, want %#x", in.Imm, valAddr&0xffff)
	}
}

func TestDataDirectives(t *testing.T) {
	obj := mustAssemble(t, `
		.data
	w:	.word 1, 2, -1
	h:	.half 3, 4
	b:	.byte 5
		.align 2
	f:	.float 1.5, -2.0
	s:	.asciiz "hi\n"
	sp:	.space 8
	ptr:	.word w+4
	`)
	if got := obj.Symbols["w"]; got != mem.DataBase {
		t.Errorf("w = %#x", got)
	}
	// 3 words = 12 bytes, then halves at 12.
	if got := obj.Symbols["h"]; got != mem.DataBase+12 {
		t.Errorf("h = %#x", got)
	}
	if got := obj.Symbols["b"]; got != mem.DataBase+16 {
		t.Errorf("b = %#x", got)
	}
	// .align 2 pads 17 -> 20.
	if got := obj.Symbols["f"]; got != mem.DataBase+20 {
		t.Errorf("f = %#x", got)
	}
	if got := obj.Symbols["s"]; got != mem.DataBase+28 {
		t.Errorf("s = %#x", got)
	}
	// Check little-endian word layout and negative value.
	if obj.Data[0] != 1 || obj.Data[4] != 2 || obj.Data[8] != 0xff || obj.Data[11] != 0xff {
		t.Errorf("word bytes wrong: % x", obj.Data[:12])
	}
	// String contents with escape.
	off := obj.Symbols["s"] - mem.DataBase
	if string(obj.Data[off:off+3]) != "hi\n" || obj.Data[off+3] != 0 {
		t.Errorf("asciiz bytes wrong: % x", obj.Data[off:off+4])
	}
	// Pointer relocation: .word w+4 holds DataBase+4.
	poff := obj.Symbols["ptr"] - mem.DataBase
	got := uint32(obj.Data[poff]) | uint32(obj.Data[poff+1])<<8 |
		uint32(obj.Data[poff+2])<<16 | uint32(obj.Data[poff+3])<<24
	if got != mem.DataBase+4 {
		t.Errorf("ptr = %#x, want %#x", got, mem.DataBase+4)
	}
}

func TestPseudoInstructions(t *testing.T) {
	obj := mustAssemble(t, `
	top:
		move $t0, $t1
		neg  $t2, $t3
		not  $t4, $t5
		beqz $t0, top
		bnez $t0, top
		blt  $t0, $t1, top
		bge  $t0, $t1, top
		bgt  $t0, $t1, top
		ble  $t0, $t1, top
		mul  $t0, $t1, $t2
		div  $t0, $t1, $t2
		rem  $t0, $t1, $t2
		b    top
	`)
	got := disasm(t, obj)
	want := []string{
		"addu $t0, $t1, $zero",
		"subu $t2, $zero, $t3",
		"nor $t4, $t5, $zero",
		"beq $t0, $zero, -4",
		"bne $t0, $zero, -5",
		"slt $at, $t0, $t1",
		"bne $at, $zero, -7",
		"slt $at, $t0, $t1",
		"beq $at, $zero, -9",
		"slt $at, $t1, $t0",
		"bne $at, $zero, -11",
		"slt $at, $t1, $t0",
		"beq $at, $zero, -13",
		"mult $t1, $t2",
		"mflo $t0",
		"div $t1, $t2",
		"mflo $t0",
		"div $t1, $t2",
		"mfhi $t0",
		"beq $zero, $zero, -20",
	}
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFPAssembly(t *testing.T) {
	obj := mustAssemble(t, `
		li.s   $f0, 1.0
		li.s   $f1, 0.5
		add.s  $f2, $f0, $f1
		c.lt.s $f1, $f0
		bc1t   ok
		nop
	ok:
		l.s    $f3, 0($t0)
		s.s    $f3, 4($t0)
		mfc1   $t1, $f2
		cvt.w.s $f4, $f2
	`)
	got := disasm(t, obj)
	// li.s 1.0 -> bits 0x3f800000, low half zero -> single lui + mtc1.
	if got[0] != "lui $at, 16256" || got[1] != "mtc1 $at, $f0" {
		t.Errorf("li.s 1.0 expanded to %v", got[:2])
	}
	// li.s 0.5 -> 0x3f000000 -> lui + mtc1.
	if got[2] != "lui $at, 16128" || got[3] != "mtc1 $at, $f1" {
		t.Errorf("li.s 0.5 expanded to %v", got[2:4])
	}
	rest := got[4:]
	want := []string{
		"add.s $f2, $f0, $f1",
		"c.lt.s $f1, $f0",
		"bc1t 1",
		"sll $zero, $zero, 0",
		"lwc1 $f3, 0($t0)",
		"swc1 $f3, 4($t0)",
		"mfc1 $t1, $f2",
		"cvt.w.s $f4, $f2",
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Errorf("word %d: %q, want %q", i+4, rest[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	obj := mustAssemble(t, `
	# full line comment
	start: addiu $t0, $zero, 1   # trailing comment
		nop ; semicolon comment
		.data
	s: .asciiz "a#b;c"           # string containing delimiters
	`)
	if len(obj.TextWords) != 2 {
		t.Errorf("%d text words", len(obj.TextWords))
	}
	off := obj.Symbols["s"] - obj.DataBase
	if string(obj.Data[off:off+5]) != "a#b;c" {
		t.Errorf("string = %q", obj.Data[off:off+5])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", "frob $t0", "unknown instruction"},
		{"unknown directive", ".frob 1", "unknown directive"},
		{"undefined symbol", "j nowhere", "undefined symbol"},
		{"duplicate label", "a:\na: nop", "duplicate label"},
		{"operand count", "add $t0, $t1", "want 3 operands"},
		{"bad register", "add $t0, $t1, $t9x", "unknown register"},
		{"imm range", "addiu $t0, $zero, 100000", "out of signed 16-bit range"},
		{"branch range", "beq $t0, $t1, 70000", "out of signed 16-bit range"},
		{"data in text", ".word 5", ".word outside .data"},
		{"inst in data", ".data\nadd $t0, $t1, $t2", "inside .data"},
		{"bad shift", "sll $t0, $t1, 32", "bad shift amount"},
		{"unterminated string", ".data\n.asciiz \"abc", "unterminated string"},
		{"symbol load needs base", "lw $t0, val", "needs a base register"},
		{"byte too large", ".data\n.byte 1, 256", "line 2: .byte value 256 out of range [-128, 255]"},
		{"byte too small", ".data\n.byte -129", "line 2: .byte value -129 out of range [-128, 255]"},
		{"byte wraps 32 bits", ".data\n.byte 0xffffffff", "line 2: .byte value 0xffffffff out of range"},
		{"byte constant", ".equ C, 300\n.data\n.byte C", "line 3: .byte value C (300) out of range [-128, 255]"},
		{"half too large", ".data\n.half 65536", "line 2: .half value 65536 out of range [-32768, 65535]"},
		{"half too small", ".data\n.half -32769", "line 2: .half value -32769 out of range [-32768, 65535]"},
		{"word too large", ".data\n.word 4294967296", "line 2: .word value 4294967296 out of range [-2147483648, 4294967295]"},
		{"word too small", ".data\n.word -2147483649", "line 2: .word value -2147483649 out of range"},
		{"word beyond 64 bits", ".data\n.word 99999999999999999999", "line 2: .word value 99999999999999999999 out of range"},
		{"byte not an integer", ".data\n.byte x", "line 2: .byte bad integer or unknown constant \"x\""},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%s: assembled successfully", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// The data directives accept both ends of their signed-to-unsigned range.
func TestDataDirectiveLimits(t *testing.T) {
	obj := mustAssemble(t, `
		.data
		.word -2147483648, 4294967295
		.half -32768, 65535
		.byte -128, 255
	`)
	want := []byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0, 0x80, 0xff, 0xff, 0x80, 0xff}
	if !bytes.Equal(obj.Data, want) {
		t.Errorf("data % x, want % x", obj.Data, want)
	}
}

func TestTextBaseOverride(t *testing.T) {
	obj := mustAssemble(t, `
		.text 0x00800000
	e:	nop
	`)
	if obj.TextBase != 0x00800000 || obj.Symbols["e"] != 0x00800000 {
		t.Errorf("base %#x sym %#x", obj.TextBase, obj.Symbols["e"])
	}
}

func TestBranchToFarLabelOutOfRange(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("beq $zero, $zero, far\n")
	for i := 0; i < 40000; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString("far: nop\n")
	if _, err := Assemble(sb.String()); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("far branch: %v", err)
	}
}

func TestEquConstants(t *testing.T) {
	obj := mustAssemble(t, `
	.equ N, 64
	.equ BASE, 0x10010000
	.equ SHIFT, 2
	.equ N2, N
	.data
	tbl:	.space N
	vals:	.word N, N2
		.half N
		.byte SHIFT
	.text
		li    $t0, BASE
		addiu $t1, $zero, N
		sll   $t2, $t1, SHIFT
		lw    $t3, N($t0)
		lui   $t4, N
	`)
	got := disasm(t, obj)
	want := []string{
		"lui $t0, 4097", // BASE = 0x10010000
		"addiu $t1, $zero, 64",
		"sll $t2, $t1, 2",
		"lw $t3, 64($t0)",
		"lui $t4, 64",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: %q, want %q", i, got[i], want[i])
		}
	}
	off := obj.Symbols["vals"] - obj.DataBase
	if obj.Data[off] != 64 || obj.Data[off+4] != 64 {
		t.Errorf(".word constants: % x", obj.Data[off:off+8])
	}
}

func TestEquErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"arity", ".equ N", "wants a name and a value"},
		{"numeric name", ".equ 5, 6", "bad constant name"},
		{"duplicate", ".equ N, 1\n.equ N, 2", "duplicate constant"},
		{"undefined value", ".equ N, M", "unknown constant"},
		{"use before def", "li $t0, N\n.equ N, 5", "unknown constant"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestLinesRecorded(t *testing.T) {
	obj := mustAssemble(t, "nop\n\nnop")
	if obj.TextLines[0] != 1 || obj.TextLines[1] != 3 {
		t.Errorf("lines = %v", obj.TextLines)
	}
}
