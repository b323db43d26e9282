package cpu

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/isa"
	"imtrans/internal/mem"
)

// run assembles src, loads its data segment, executes it to completion and
// returns the CPU for state inspection.
func run(t *testing.T, src string) *CPU {
	t.Helper()
	c := start(t, src)
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func start(t *testing.T, src string) *CPU {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	for i, b := range obj.Data {
		m.StoreByte(obj.DataBase+uint32(i), b)
	}
	c, err := New(Program{Base: obj.TextBase, Words: obj.TextWords}, m)
	if err != nil {
		t.Fatalf("new cpu: %v", err)
	}
	return c
}

const exitSeq = "\nli $v0, 10\nsyscall\n"

func TestArithmetic(t *testing.T) {
	c := run(t, `
		li $t0, 6
		li $t1, 7
		addu $t2, $t0, $t1
		subu $t3, $t0, $t1
		and  $t4, $t0, $t1
		or   $t5, $t0, $t1
		xor  $t6, $t0, $t1
		nor  $t7, $t0, $t1
		slt  $s0, $t1, $t0
		slt  $s1, $t0, $t1
	`+exitSeq)
	checks := []struct {
		r    isa.Reg
		want uint32
	}{
		{isa.T2, 13}, {isa.T3, 0xffffffff}, {isa.T4, 6}, {isa.T5, 7},
		{isa.T6, 1}, {isa.T7, ^uint32(7)}, {isa.S0, 0}, {isa.S1, 1},
	}
	for _, ch := range checks {
		if c.GPR[ch.r] != ch.want {
			t.Errorf("%s = %#x, want %#x", ch.r, c.GPR[ch.r], ch.want)
		}
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
		li  $t0, -8
		sll $t1, $t0, 1
		srl $t2, $t0, 1
		sra $t3, $t0, 1
		li  $t4, 2
		sllv $t5, $t0, $t4
		srlv $t6, $t0, $t4
		srav $t7, $t0, $t4
	`+exitSeq)
	if c.GPR[isa.T1] != 0xfffffff0 {
		t.Errorf("sll = %#x", c.GPR[isa.T1])
	}
	if c.GPR[isa.T2] != 0x7ffffffc {
		t.Errorf("srl = %#x", c.GPR[isa.T2])
	}
	if c.GPR[isa.T3] != 0xfffffffc {
		t.Errorf("sra = %#x", c.GPR[isa.T3])
	}
	if c.GPR[isa.T5] != 0xffffffe0 || c.GPR[isa.T6] != 0x3ffffffe || c.GPR[isa.T7] != 0xfffffffe {
		t.Errorf("variable shifts = %#x %#x %#x", c.GPR[isa.T5], c.GPR[isa.T6], c.GPR[isa.T7])
	}
}

func TestMultDiv(t *testing.T) {
	c := run(t, `
		li   $t0, -6
		li   $t1, 7
		mult $t0, $t1
		mflo $t2
		mfhi $t3
		li   $t0, 100
		li   $t1, 7
		div  $t0, $t1
		mflo $t4
		mfhi $t5
		li   $t0, -1
		li   $t1, 2
		multu $t0, $t1
		mfhi $t6
		divu $t0, $t1
		mflo $t7
	`+exitSeq)
	if int32(c.GPR[isa.T2]) != -42 || int32(c.GPR[isa.T3]) != -1 {
		t.Errorf("mult = lo %d hi %d", int32(c.GPR[isa.T2]), int32(c.GPR[isa.T3]))
	}
	if c.GPR[isa.T4] != 14 || c.GPR[isa.T5] != 2 {
		t.Errorf("div = q %d r %d", c.GPR[isa.T4], c.GPR[isa.T5])
	}
	if c.GPR[isa.T6] != 1 { // 0xffffffff * 2 = 0x1_fffffffe
		t.Errorf("multu hi = %#x", c.GPR[isa.T6])
	}
	if c.GPR[isa.T7] != 0x7fffffff {
		t.Errorf("divu = %#x", c.GPR[isa.T7])
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
		.data
	buf:	.space 16
		.text
		la  $t0, buf
		li  $t1, -2
		sw  $t1, 0($t0)
		lw  $t2, 0($t0)
		sh  $t1, 8($t0)
		lh  $t3, 8($t0)
		lhu $t4, 8($t0)
		sb  $t1, 12($t0)
		lb  $t5, 12($t0)
		lbu $t6, 12($t0)
	`+exitSeq)
	if c.GPR[isa.T2] != 0xfffffffe {
		t.Errorf("lw = %#x", c.GPR[isa.T2])
	}
	if c.GPR[isa.T3] != 0xfffffffe || c.GPR[isa.T4] != 0xfffe {
		t.Errorf("lh/lhu = %#x %#x", c.GPR[isa.T3], c.GPR[isa.T4])
	}
	if c.GPR[isa.T5] != 0xfffffffe || c.GPR[isa.T6] != 0xfe {
		t.Errorf("lb/lbu = %#x %#x", c.GPR[isa.T5], c.GPR[isa.T6])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a bne loop.
	c := run(t, `
		li $t0, 10
		li $t1, 0
	loop:
		addu $t1, $t1, $t0
		addiu $t0, $t0, -1
		bgtz $t0, loop
	`+exitSeq)
	if c.GPR[isa.T1] != 55 {
		t.Errorf("sum = %d", c.GPR[isa.T1])
	}
}

func TestAllBranchKinds(t *testing.T) {
	c := run(t, `
		li $t0, -1
		li $s0, 0
		bltz $t0, l1
		j fail
	l1:	bgez $zero, l2
		j fail
	l2:	blez $zero, l3
		j fail
	l3:	li $t1, 1
		bgtz $t1, l4
		j fail
	l4:	beq $t1, $t1, l5
		j fail
	l5:	bne $t0, $t1, ok
		j fail
	fail:	li $s0, 99
	ok:
	`+exitSeq)
	if c.GPR[isa.S0] != 0 {
		t.Error("some branch took the wrong path")
	}
}

func TestJalJrCall(t *testing.T) {
	c := run(t, `
		li  $a0, 20
		jal double
		move $s0, $v0
		jal double
		move $s1, $v0
	`+exitSeq+`
	double:
		addu $v0, $a0, $a0
		move $a0, $v0
		jr $ra
	`)
	if c.GPR[isa.S0] != 40 || c.GPR[isa.S1] != 80 {
		t.Errorf("calls = %d, %d", c.GPR[isa.S0], c.GPR[isa.S1])
	}
}

func TestFloatingPoint(t *testing.T) {
	c := run(t, `
		.data
	vals:	.float 2.0, 8.0
		.text
		la    $t0, vals
		l.s   $f0, 0($t0)
		l.s   $f1, 4($t0)
		add.s $f2, $f0, $f1
		sub.s $f3, $f1, $f0
		mul.s $f4, $f0, $f1
		div.s $f5, $f1, $f0
		sqrt.s $f6, $f1
		neg.s $f7, $f0
		abs.s $f8, $f7
		mov.s $f9, $f8
	`+exitSeq)
	want := []struct {
		r isa.FReg
		v float32
	}{
		{2, 10}, {3, 6}, {4, 16}, {5, 4},
		{6, float32(math.Sqrt(8))}, {7, -2}, {8, 2}, {9, 2},
	}
	for _, w := range want {
		if c.FPR[w.r] != w.v {
			t.Errorf("$f%d = %v, want %v", w.r, c.FPR[w.r], w.v)
		}
	}
}

func TestFPCompareAndBranch(t *testing.T) {
	c := run(t, `
		li.s $f0, 1.0
		li.s $f1, 2.0
		li   $s0, 0
		c.lt.s $f0, $f1
		bc1t l1
		li $s0, 1
	l1:	c.eq.s $f0, $f1
		bc1f l2
		li $s0, 2
	l2:	c.le.s $f1, $f1
		bc1t l3
		li $s0, 3
	l3:
	`+exitSeq)
	if c.GPR[isa.S0] != 0 {
		t.Errorf("fp branch path = %d", c.GPR[isa.S0])
	}
}

func TestFPConversions(t *testing.T) {
	c := run(t, `
		li   $t0, 7
		mtc1 $t0, $f0
		cvt.s.w $f1, $f0
		li.s $f2, -3.75
		cvt.w.s $f3, $f2
		mfc1 $t1, $f3
		mfc1 $t2, $f1
	`+exitSeq)
	if int32(c.GPR[isa.T1]) != -3 {
		t.Errorf("cvt.w.s(-3.75) = %d", int32(c.GPR[isa.T1]))
	}
	if math.Float32frombits(c.GPR[isa.T2]) != 7.0 {
		t.Errorf("cvt.s.w(7) = %v", math.Float32frombits(c.GPR[isa.T2]))
	}
}

func TestSyscallOutput(t *testing.T) {
	c := start(t, `
		.data
	msg:	.asciiz "n="
		.text
		la $a0, msg
		li $v0, 4
		syscall
		li $a0, 42
		li $v0, 1
		syscall
		li $a0, 10
		li $v0, 11
		syscall
		li.s $f12, 1.5
		li $v0, 2
		syscall
	`+exitSeq)
	var out bytes.Buffer
	c.Stdout = &out
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "n=42\n1.5" {
		t.Errorf("output = %q", got)
	}
}

func TestExitCode(t *testing.T) {
	c := run(t, `
		li $a0, 3
		li $v0, 17
		syscall
	`)
	if c.ExitCode != 3 || !c.Halted {
		t.Errorf("exit = %d halted=%v", c.ExitCode, c.Halted)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := run(t, `
		li  $t0, 5
		addu $zero, $t0, $t0
		or  $t1, $zero, $zero
	`+exitSeq)
	if c.GPR[isa.Zero] != 0 || c.GPR[isa.T1] != 0 {
		t.Error("$zero was written")
	}
}

func TestProfileCounts(t *testing.T) {
	c := run(t, `
		li $t0, 5
	loop:
		addiu $t0, $t0, -1
		bgtz $t0, loop
	`+exitSeq)
	prof := c.Profile()
	if prof[0] != 1 {
		t.Errorf("li executed %d times", prof[0])
	}
	if prof[1] != 5 || prof[2] != 5 {
		t.Errorf("loop body executed %d/%d times, want 5/5", prof[1], prof[2])
	}
}

func TestOnFetchSeesRawWords(t *testing.T) {
	c := start(t, "li $t0, 1"+exitSeq)
	var pcs []uint32
	var words []uint32
	c.OnFetch = func(pc, w uint32) {
		pcs = append(pcs, pc)
		words = append(words, w)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 {
		t.Fatalf("%d fetches", len(pcs))
	}
	prog := c.Program()
	for i := range pcs {
		if words[i] != prog.Words[prog.Index(pcs[i])] {
			t.Errorf("fetch %d: word %#x does not match memory", i, words[i])
		}
	}
	if c.InstCount != 3 {
		t.Errorf("InstCount = %d", c.InstCount)
	}
}

func TestStats(t *testing.T) {
	c := run(t, `
		.data
	buf:	.space 8
		.text
		la   $t0, buf
		li   $t1, 3
	loop:
		lw   $t2, 0($t0)
		addu $t2, $t2, $t1
		sw   $t2, 0($t0)
		li.s $f0, 1.0
		addiu $t1, $t1, -1
		bgtz $t1, loop
	`+exitSeq)
	s := c.Stats()
	if s.Instructions != c.InstCount {
		t.Errorf("instructions = %d", s.Instructions)
	}
	if s.Loads != 3 || s.Stores != 3 {
		t.Errorf("loads=%d stores=%d, want 3/3", s.Loads, s.Stores)
	}
	if s.Branches != 3 || s.BranchTaken != 2 {
		t.Errorf("branches=%d taken=%d, want 3/2", s.Branches, s.BranchTaken)
	}
	if s.FPOps != 3 { // mtc1 per loop iteration (li.s expands lui+mtc1)
		t.Errorf("fp ops = %d", s.FPOps)
	}
	if s.PerOp["addu"] != 3 || s.PerOp["lw"] != 3 || s.PerOp["syscall"] != 1 {
		t.Errorf("per-op = %v", s.PerOp)
	}
	var sum uint64
	for _, n := range s.PerOp {
		sum += n
	}
	if sum != s.Instructions {
		t.Errorf("per-op sum %d != instructions %d", sum, s.Instructions)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div zero", "li $t0, 1\nli $t1, 0\ndiv $t0, $t1" + exitSeq, "divide by zero"},
		{"bad syscall", "li $v0, 99\nsyscall", "unknown syscall"},
		// Unaligned word accesses quote the faulting pc, then the
		// memory's message with the address, verbatim.
		{"unaligned lw", "li $t0, 2\nlw $t1, 0($t0)", "cpu: pc 0x400004: mem: unaligned word load at 0x2"},
		{"unaligned sw", "li $t0, 0x10010001\nsw $t1, 4($t0)", "cpu: pc 0x400008: mem: unaligned word store at 0x10010005"},
		{"unaligned lwc1", "li $t0, 0x10010003\nlwc1 $f2, -8($t0)", "cpu: pc 0x400008: mem: unaligned word load at 0x1000fffb"},
		{"unaligned swc1", "li $t0, 6\nswc1 $f2, 0($t0)", "cpu: pc 0x400004: mem: unaligned word store at 0x6"},
		{"break", "break", "break"},
		{"fall off end", "nop", "outside text segment"},
		{"wild jump", "li $t0, 0x20000000\njr $t0", "outside text segment"},
	}
	for _, c := range cases {
		cp := start(t, c.src)
		err := cp.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestInstructionCap(t *testing.T) {
	c := start(t, "loop: j loop")
	c.MaxInstructions = 100
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "instruction cap") {
		t.Errorf("err = %v", err)
	}
	if c.InstCount != 100 {
		t.Errorf("InstCount = %d", c.InstCount)
	}
}

// TestRunCtxStopsBetweenChunks: a cancelled run stops at a chunk
// boundary, and the chunks still meet the instruction cap exactly.
func TestRunCtxStopsBetweenChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := start(t, "loop: j loop")
	n := 0
	c.OnFetch = func(pc, word uint32) {
		if n++; n == pollInterval+3 {
			cancel()
		}
	}
	if err := c.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.InstCount != 2*pollInterval {
		t.Errorf("InstCount = %d, want %d (the end of the cancelling chunk)", c.InstCount, 2*pollInterval)
	}

	c = start(t, "loop: j loop")
	c.MaxInstructions = pollInterval + 5
	if err := c.RunCtx(context.Background()); err == nil || !strings.Contains(err.Error(), "instruction cap") {
		t.Errorf("err = %v", err)
	}
	if c.InstCount != pollInterval+5 {
		t.Errorf("InstCount = %d, want %d", c.InstCount, pollInterval+5)
	}
}

func TestStepAfterHalt(t *testing.T) {
	c := run(t, "li $v0, 10\nsyscall")
	if err := c.Step(); err == nil {
		t.Error("step after halt succeeded")
	}
}

func TestEmptyAndInvalidProgram(t *testing.T) {
	if _, err := New(Program{Base: mem.TextBase}, nil); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := New(Program{Base: mem.TextBase, Words: []uint32{0xffffffff}}, nil); err == nil {
		t.Error("undecodable program accepted")
	}
}

// spanRecorder records a run's fetches through OnFetch and its spans
// through OnSpan, expanded back to fetch PCs.
type spanRecorder struct {
	fetches, expanded []uint32
	spans             [][2]uint32
}

func (r *spanRecorder) attach(c *CPU) {
	c.OnFetch = func(pc, _ uint32) { r.fetches = append(r.fetches, pc) }
	c.OnSpan = func(first, last uint32) {
		r.spans = append(r.spans, [2]uint32{first, last})
		for pc := first; pc <= last; pc += 4 {
			r.expanded = append(r.expanded, pc)
		}
	}
}

// TestOnSpanConcatenatesToFetches: the spans of a halted run expand to
// exactly the OnFetch stream, and each ends at a control transfer, so a
// branch to the next instruction and untaken branches stay inside one.
func TestOnSpanConcatenatesToFetches(t *testing.T) {
	c := start(t, `
		li   $t0, 3
		li   $s0, 0
	loop:
		addiu $s0, $s0, 1
		beq  $zero, $zero, next   # taken, to the next instruction
	next:
		bltz $t0, fail            # untaken
		jal  leaf
		addiu $t0, $t0, -1
		bgtz $t0, loop            # taken twice, then untaken
		j    one
	fail:
		li   $s0, 99
	one:
		j    two                  # a one-instruction span
		nop
	two:
		j    three                # a jump to the next instruction
	three:
		la   $t1, tail
		jr   $t1
		nop
	tail:
		li $v0, 10
		syscall
	leaf:
		addu $s1, $s1, $s0
		jr   $ra
	`)
	var r spanRecorder
	r.attach(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.S0] != 3 {
		t.Fatalf("s0 = %d, the program took a wrong path", c.GPR[isa.S0])
	}
	if !slices.Equal(r.expanded, r.fetches) {
		t.Fatalf("spans %x expand to\n%x\nwant the fetch stream\n%x", r.spans, r.expanded, r.fetches)
	}
	// Transfers: 3 jal, 3 jr $ra, 2 bgtz, j one, j two and jr $t1; the
	// taken beq and j three land on the next instruction.
	if len(r.spans) != 12 {
		t.Errorf("%d spans %x, want 11 transfers and the halt", len(r.spans), r.spans)
	}
	for i := 1; i < len(r.spans); i++ {
		if r.spans[i][0] == r.spans[i-1][1]+4 {
			t.Errorf("span %d %x continues span %d %x: not a transfer", i, r.spans[i], i-1, r.spans[i-1])
		}
	}
}

// TestOnSpanStoppedRuns: a run stopped by the instruction cap or by a
// cancelled context returns its error, and the spans it reported are a
// prefix of its fetches.
func TestOnSpanStoppedRuns(t *testing.T) {
	c := start(t, "loop: addiu $t0, $t0, 1\nj loop")
	c.MaxInstructions = 1001
	var r spanRecorder
	r.attach(c)
	if err := c.Run(); err == nil || !strings.Contains(err.Error(), "instruction cap") {
		t.Errorf("capped run: err = %v", err)
	}
	if len(r.spans) != 500 || !slices.Equal(r.expanded, r.fetches[:len(r.expanded)]) {
		t.Errorf("capped run: %d spans, want 500 as a prefix of the fetches", len(r.spans))
	}

	ctx, cancel := context.WithCancel(context.Background())
	c = start(t, "loop: addiu $t0, $t0, 1\nj loop")
	r = spanRecorder{}
	r.attach(c)
	onSpan := c.OnSpan
	c.OnSpan = func(first, last uint32) {
		if onSpan(first, last); len(r.spans) == 10 {
			cancel()
		}
	}
	if err := c.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
	if !slices.Equal(r.expanded, r.fetches[:len(r.expanded)]) {
		t.Error("cancelled run: spans are not a prefix of the fetches")
	}
}
