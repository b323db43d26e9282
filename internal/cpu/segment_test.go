package cpu_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cpu"
	"imtrans/internal/isa"
	"imtrans/internal/mem"
	"imtrans/internal/workloads"
)

// hookLog records what a run's hooks saw.
type hookLog struct {
	fetches []uint32
	spans   [][2]uint32
	data    [][3]uint32 // address, value, 1 for a store
}

func (l *hookLog) attach(c *cpu.CPU, fetch bool) {
	if fetch {
		c.OnFetch = func(pc, _ uint32) { l.fetches = append(l.fetches, pc) }
	}
	c.OnSpan = func(first, last uint32) { l.spans = append(l.spans, [2]uint32{first, last}) }
	c.OnData = func(addr, v uint32, store bool) {
		s := uint32(0)
		if store {
			s = 1
		}
		l.data = append(l.data, [3]uint32{addr, v, s})
	}
}

// stepRun is the reference run loop: one Step per instruction, with the
// instruction cap checked before each and reported as RunCtx reports it.
func stepRun(c *cpu.CPU) error {
	max := c.MaxInstructions
	if max == 0 {
		max = cpu.DefaultMaxInstructions
	}
	for !c.Halted {
		if c.InstCount >= max {
			return fmt.Errorf("cpu: instruction cap %d exceeded at pc %#x", max, c.PC)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// outcome is everything a run leaves behind.
type outcome struct {
	c   *cpu.CPU
	out bytes.Buffer
	log hookLog
	err string
}

func runWith(newCPU func() *cpu.CPU, fetch bool, run func(*cpu.CPU) error) *outcome {
	o := &outcome{c: newCPU()}
	o.c.Stdout = &o.out
	o.log.attach(o.c, fetch)
	if err := run(o.c); err != nil {
		o.err = err.Error()
	}
	return o
}

// diffRuns runs the program newCPU builds through RunCtx's segment loop
// and through the Step loop, with the same hooks attached, and lists
// every difference in architectural state, memory, output, counters,
// hook sequences and error text.
func diffRuns(newCPU func() *cpu.CPU, fetch bool) []string {
	seg := runWith(newCPU, fetch, func(c *cpu.CPU) error { return c.RunCtx(context.Background()) })
	ref := runWith(newCPU, fetch, stepRun)
	var diffs []string
	check := func(what string, same bool, got, want any) {
		if !same {
			diffs = append(diffs, fmt.Sprintf("%s: segment loop %v, Step %v", what, got, want))
		}
	}
	a, b := seg.c, ref.c
	check("error", seg.err == ref.err, seg.err, ref.err)
	check("GPRs", a.GPR == b.GPR, a.GPR, b.GPR)
	fa, fb := fprBits(a), fprBits(b)
	check("FPRs", fa == fb, fa, fb)
	check("HI/LO", a.HI == b.HI && a.LO == b.LO, [2]uint32{a.HI, a.LO}, [2]uint32{b.HI, b.LO})
	check("FCC", a.FCC == b.FCC, a.FCC, b.FCC)
	check("PC", a.PC == b.PC, a.PC, b.PC)
	check("Halted/ExitCode", a.Halted == b.Halted && a.ExitCode == b.ExitCode,
		[2]any{a.Halted, a.ExitCode}, [2]any{b.Halted, b.ExitCode})
	check("InstCount", a.InstCount == b.InstCount, a.InstCount, b.InstCount)
	check("stdout", bytes.Equal(seg.out.Bytes(), ref.out.Bytes()), seg.out.String(), ref.out.String())
	check("Profile", slices.Equal(a.Profile(), b.Profile()), a.Profile(), b.Profile())
	sa, sb := a.Stats(), b.Stats()
	check("Stats", fmt.Sprint(sa) == fmt.Sprint(sb), sa, sb)
	check("OnFetch", slices.Equal(seg.log.fetches, ref.log.fetches), len(seg.log.fetches), len(ref.log.fetches))
	check("OnSpan", slices.Equal(seg.log.spans, ref.log.spans), seg.log.spans, ref.log.spans)
	check("OnData", slices.Equal(seg.log.data, ref.log.data), len(seg.log.data), len(ref.log.data))
	pa, pb := a.Mem.TouchedPages(), b.Mem.TouchedPages()
	check("touched pages", slices.Equal(pa, pb), pa, pb)
	if slices.Equal(pa, pb) {
		for _, page := range pa {
			wa, _ := a.Mem.LoadWords(page, 1024)
			wb, _ := b.Mem.LoadWords(page, 1024)
			check(fmt.Sprintf("page %#x", page), slices.Equal(wa, wb), "contents", "differ")
		}
	}
	return diffs
}

func fprBits(c *cpu.CPU) (out [32]uint32) {
	for i, f := range c.FPR {
		out[i] = math.Float32bits(f)
	}
	return out
}

// assembled returns a constructor for fresh CPUs running src, with its
// data segment and the optional setup applied to a new memory.
func assembled(t *testing.T, src string, setup func(*mem.Memory) error, max uint64) func() *cpu.CPU {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return func() *cpu.CPU {
		m := mem.New()
		for i, b := range obj.Data {
			m.StoreByte(obj.DataBase+uint32(i), b)
		}
		if setup != nil {
			if err := setup(m); err != nil {
				t.Fatalf("setup: %v", err)
			}
		}
		c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
		if err != nil {
			t.Fatalf("new cpu: %v", err)
		}
		c.MaxInstructions = max
		return c
	}
}

// TestSegmentMatchesStep runs all nine kernels at their test scales, and
// hand-written programs and the fuzz seeds, which stop inside a segment,
// through RunCtx's segment loop and through a Step loop, with and without
// OnFetch, and requires identical state, counters, hook sequences and
// errors.
func TestSegmentMatchesStep(t *testing.T) {
	scales := map[string]workloads.Params{
		"mmul": {N: 24}, "sor": {N: 32, Iters: 2}, "ej": {N: 24, Iters: 4},
		"fft": {N: 64}, "tri": {N: 32, Iters: 10}, "lu": {N: 24},
	}
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		p, ok := scales[w.Name]
		if !ok {
			p = w.TestParams
		}
		p = w.Fill(p)
		newCPU := assembled(t, w.Source(p), func(m *mem.Memory) error { return w.Setup(m, p) }, 0)
		for _, d := range diffRuns(newCPU, false) {
			t.Errorf("%s %+v: %s", w.Name, p, d)
		}
	}

	// Each fault sits inside a segment, after instructions the fault
	// must still charge, and before ones it must not.
	const pre = "li $t5, 7\naddiu $t6, $t5, 1\n"
	const post = "\naddiu $t7, $t7, 1\nli $v0, 10\nsyscall\n"
	cases := []struct {
		name, src string
		max       uint64
		want      string // a substring of the error, or "" for a clean halt
	}{
		{"unaligned lw", pre + "li $t0, 0x10010002\nlw $t1, 0($t0)" + post, 0, "unaligned word load"},
		{"unaligned sw", pre + "li $t0, 0x10010001\nsw $t1, 0($t0)" + post, 0, "unaligned word store"},
		{"unaligned lh", pre + "li $t0, 0x10010001\nlh $t1, 0($t0)" + post, 0, "unaligned halfword load"},
		{"unaligned sh", pre + "li $t0, 0x10010003\nsh $t1, 0($t0)" + post, 0, "unaligned halfword store"},
		{"unaligned lwc1", pre + "li $t0, 0x10010002\nlwc1 $f1, 0($t0)" + post, 0, "unaligned word load"},
		{"div by zero", pre + "div $t5, $zero" + post, 0, "divide by zero"},
		{"divu by zero", pre + "divu $t5, $zero" + post, 0, "divide by zero"},
		{"break", pre + "break" + post, 0, "break at pc"},
		{"unknown syscall", pre + "li $v0, 99\nsyscall" + post, 0, "unknown syscall 99"},
		{"fall off the end", pre + "addiu $t7, $t7, 1", 0, "outside text segment"},
		{"wild jump", pre + "li $t0, 0x20000000\njr $t0", 0, "outside text segment"},
		{"misaligned jump", pre + "la $t0, there\naddiu $t0, $t0, 2\njr $t0\nthere:" + post, 0, "outside text segment"},
		// A four-instruction loop under a cap that is not a multiple of
		// four stops three instructions into a segment.
		{"cap inside a segment", "loop: addiu $t0, $t0, 1\naddiu $t1, $t1, 2\nsw $t0, 0($gp)\nj loop", 1003, "instruction cap 1003 exceeded"},
		// A three-instruction loop after two instructions crosses the
		// first chunk edge (pollInterval, a power of two) inside a
		// segment, then halts; the capped one stops inside a later one.
		{"across a chunk edge", "li $t0, 30000\nli $t1, 0\nloop: addiu $t0, $t0, -1\naddiu $t1, $t1, 3\nbgtz $t0, loop" + exitSeq, 0, ""},
		{"cap after a chunk edge", "loop: addiu $t0, $t0, 1\naddiu $t1, $t1, 2\nj loop", 1<<16 + 3, "instruction cap 65539 exceeded"},
	}
	type stop struct {
		name   string
		newCPU func() *cpu.CPU
		want   string
	}
	var stops []stop
	for _, tc := range cases {
		stops = append(stops, stop{tc.name, assembled(t, tc.src, nil, tc.max), tc.want})
	}
	// FuzzSegmentMatchesStep's seeds must keep reaching the stops they
	// stand for.
	for _, s := range fuzzSeeds() {
		stops = append(stops, stop{fmt.Sprintf("fuzz seed %x", s.data), fuzzCPU(t, s.data), s.want})
	}
	for _, tc := range stops {
		for _, fetch := range []bool{false, true} {
			for _, d := range diffRuns(tc.newCPU, fetch) {
				t.Errorf("%s (OnFetch %v): %s", tc.name, fetch, d)
			}
		}
		err := tc.newCPU().Run()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: err = %v, want a clean halt", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

const exitSeq = "\nli $v0, 10\nsyscall\n"

// fuzzOps lists every implemented operation.
func fuzzOps() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(1); op.Valid(); op++ {
		ops = append(ops, op)
	}
	return ops
}

// fuzzProgram builds a 1–64-instruction program from data, four bytes an
// instruction: an operation over every implemented op, then three
// operand bytes b1, b2, b3. Registers: b1 names the destination, b2 the
// first source and b3 the second (or an 8-bit immediate, or a shift
// amount). Branch and jump targets are b3 wrapped into the text; jr and
// jalr return through $ra when b3 is even. Loads and stores address the
// data segment through $gp, which no instruction writes, at offset
// int8(b2)<<6 | b3&63, so they are unaligned when b3's low bits are set.
func fuzzProgram(data []byte) []uint32 {
	ops := fuzzOps()
	n := min(max(len(data)/4, 1), 64)
	reg := func(x byte) isa.Reg {
		if r := isa.Reg(x % 32); r != isa.GP {
			return r
		}
		return isa.Zero
	}
	fr := func(x byte) isa.FReg { return isa.FReg(x % 32) }
	words := make([]uint32, n)
	for i := range words {
		var b [4]byte
		if 4*i < len(data) {
			copy(b[:], data[4*i:])
		}
		op := ops[int(b[0])%len(ops)]
		b1, b2, b3 := b[1], b[2], b[3]
		in := isa.Inst{
			Op: op, Rd: reg(b1), Rs: reg(b2), Rt: reg(b3),
			Fd: fr(b1), Fs: fr(b2), Ft: fr(b3),
			Shamt: b3 % 32, Imm: int32(int8(b3)),
		}
		switch f := op.Format(); {
		case op.IsLoad() || op.IsStore():
			in.Rt, in.Ft, in.Rs = reg(b1), fr(b1), isa.GP
			in.Imm = int32(int8(b2))<<6 | int32(b3&63)
		case op.IsBranch():
			in.Rs, in.Rt = reg(b1), reg(b2)
			in.Imm = int32(int(b3)%n - (i + 1))
		case op == isa.OpJ || op == isa.OpJAL:
			in.Target = mem.TextBase>>2 + uint32(int(b3)%n)
		case op == isa.OpJR || op == isa.OpJALR:
			if b3%2 == 0 {
				in.Rs = isa.RA
			}
		case op == isa.OpANDI || op == isa.OpORI || op == isa.OpXORI || op == isa.OpLUI:
			in.Rt, in.Imm = reg(b1), int32(b3)
		case f == isa.FmtI:
			in.Rt = reg(b1)
		}
		w, err := in.Encode()
		if err != nil {
			panic(fmt.Sprintf("%+v: %v", in, err))
		}
		words[i] = w
	}
	return words
}

// fuzzInst packs one instruction of fuzzProgram's input.
func fuzzInst(op isa.Op, b1, b2, b3 byte) []byte {
	return []byte{byte(slices.Index(fuzzOps(), op)), b1, b2, b3}
}

// fuzzSeeds are FuzzSegmentMatchesStep's seeds, each with the stop it
// reaches (TestSegmentMatchesStep checks it): the cap inside a segment,
// every fault kind, and a clean halt.
func fuzzSeeds() []struct {
	want string
	data []byte
} {
	const t0, t1, v0, f1, f2 = byte(isa.T0), byte(isa.T1), byte(isa.V0), 1, 2
	add5 := fuzzInst(isa.OpADDIU, t0, t0, 5)
	return []struct {
		want string
		data []byte
	}{
		// A three-instruction loop: 10 000 is one past a multiple of 3.
		{"instruction cap 10000 exceeded", slices.Concat(
			fuzzInst(isa.OpADDIU, t0, t0, 1), fuzzInst(isa.OpXOR, t1, t0, t1), fuzzInst(isa.OpJ, 0, 0, 0))},
		{"unaligned word load", slices.Concat(add5, fuzzInst(isa.OpLW, t1, 0, 2), add5)},
		{"unaligned halfword store", slices.Concat(add5, fuzzInst(isa.OpSH, t1, 0, 1), add5)},
		{"divide by zero", slices.Concat(add5, fuzzInst(isa.OpDIV, 0, t0, 0), add5)},
		{"break at pc", slices.Concat(add5, fuzzInst(isa.OpBREAK, 0, 0, 0))},
		{"unknown syscall 0", slices.Concat(add5, fuzzInst(isa.OpSYSCALL, 0, 0, 0))},
		{"pc 0x5 outside text segment", slices.Concat(add5, fuzzInst(isa.OpJR, 0, t0, 1))},
		{"pc 0x400008 outside text segment", slices.Concat(add5, fuzzInst(isa.OpMFLO, t1, 0, 0))},
		// A call to float work that returns to ori $v0, $zero, 10.
		{"", slices.Concat(
			fuzzInst(isa.OpJAL, 0, 0, 3), fuzzInst(isa.OpORI, v0, 0, 10), fuzzInst(isa.OpSYSCALL, 0, 0, 0),
			fuzzInst(isa.OpMTC1, 0, f1, t0), fuzzInst(isa.OpADDS, f2, f1, f1),
			fuzzInst(isa.OpSWC1, f2, 0, 8), fuzzInst(isa.OpCLTS, 0, f1, f2), fuzzInst(isa.OpJR, 0, 0, 0))},
	}
}

func fuzzCPU(t *testing.T, data []byte) func() *cpu.CPU {
	words := fuzzProgram(data)
	return func() *cpu.CPU {
		c, err := cpu.New(cpu.Program{Base: mem.TextBase, Words: words}, nil)
		if err != nil {
			t.Fatalf("new cpu: %v", err)
		}
		c.MaxInstructions = 10_000
		return c
	}
}

// FuzzSegmentMatchesStep runs generated programs through RunCtx's
// segment loop and through a Step loop, hooks on both, under a
// 10 000-instruction cap, and requires identical state, memory, output,
// Profile, Stats, InstCount, hook sequences and error text.
func FuzzSegmentMatchesStep(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range diffRuns(fuzzCPU(t, data), true) {
			t.Errorf("%s", d)
		}
	})
}
