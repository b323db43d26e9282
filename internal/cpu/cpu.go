// Package cpu implements a functional in-order simulator for the MR32
// instruction set: one instruction fetched and executed at a time, exactly
// the embedded front end the paper's experiments assume. Its job in the
// power-encoding pipeline is to produce the dynamic instruction fetch
// stream (via the OnFetch hook) and the per-PC execution profile that
// drives hot-loop selection; architectural state is simulated precisely so
// benchmark kernels can be validated against golden references. The
// stream is also reported one straight-line span at a time (the OnSpan
// hook), which is what trace capture folds.
//
// Run dispatches one segment at a time: the straight-line instructions
// from the PC up to the next control instruction (branch, jump, syscall or
// break). Inside a segment the PC only steps by 4, so the text bounds, the
// chunk limit, the instruction count, the span and the taken-branch logic
// are paid once per segment and the opcode switch once per instruction.
// Per-PC and per-op counts are kept per segment entry and folded into the
// profile when Profile or Stats is read. Step executes a single
// instruction with per-instruction bookkeeping; it is the reference the
// segment loop is tested against. Every counter a caller reads
// (InstCount, Profile, Stats) is exact whenever Run, RunCtx or Step
// returns; inside a hook, InstCount may still stand at the start of the
// running segment.
package cpu

import (
	"context"
	"fmt"
	"io"
	"math"

	"imtrans/internal/isa"
	"imtrans/internal/mem"
)

// Program is a contiguous text segment: machine words laid out from Base.
type Program struct {
	Base  uint32
	Words []uint32
}

// Contains reports whether pc addresses an instruction of the program.
func (p Program) Contains(pc uint32) bool {
	return pc >= p.Base && pc < p.Base+uint32(4*len(p.Words)) && pc&3 == 0
}

// Index returns the word index of pc within the program.
func (p Program) Index(pc uint32) int { return int(pc-p.Base) >> 2 }

// Syscall numbers, following the SPIM convention used by the workloads.
const (
	SysPrintInt    = 1
	SysPrintFloat  = 2
	SysPrintString = 4
	SysExit        = 10
	SysPrintChar   = 11
	SysExit2       = 17
)

// CPU is the architectural state of one MR32 core plus simulation
// bookkeeping. Construct with New.
type CPU struct {
	PC  uint32
	GPR [32]uint32
	FPR [32]float32
	HI  uint32
	LO  uint32
	FCC bool // floating-point condition flag (FCC0)

	Mem    *mem.Memory
	Stdout io.Writer

	// OnFetch, when non-nil, observes every instruction fetch with the
	// program counter and the raw machine word on the instruction bus.
	// The power-encoding experiments attach their bus models here.
	OnFetch func(pc, word uint32)

	// OnSpan, when non-nil, observes the fetch stream one straight-line
	// span at a time: first and last are the PCs of the span's first and
	// last fetch, and the fetches between them step by 4. It is called at
	// every control transfer (an executed instruction whose successor is
	// not pc+4, so a branch to the next instruction continues the span)
	// and once when the program halts, so the spans of a halted run
	// concatenate to exactly the fetches OnFetch sees. A run that stops
	// with an error does not report its open span.
	OnSpan func(first, last uint32)

	// OnData, when non-nil, observes data-memory traffic: the effective
	// address and the 32-bit value on the data bus (sub-word accesses are
	// reported zero-extended, as a 32-bit bus would carry them). store
	// distinguishes writes from reads.
	OnData func(addr, value uint32, store bool)

	// MaxInstructions aborts runaway programs; 0 means the default cap.
	MaxInstructions uint64

	prog      Program
	spanFirst uint32 // PC of the first fetch of the open span
	decoded   []isa.Inst
	// segEnd[i] is the index of the last instruction of the segment
	// entered at i: the first control instruction at or after i, or the
	// last word.
	segEnd []int32
	// entries[i] counts the segments RunCtx entered at i and ran to their
	// end that fold has not yet charged to profile and opCounts.
	entries   []uint64
	profile   []uint64
	opCounts  [128]uint64
	taken     uint64
	InstCount uint64
	Halted    bool
	ExitCode  int
}

// Stats summarises the dynamic instruction mix of a run.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	BranchTaken  uint64
	Jumps        uint64
	FPOps        uint64
	PerOp        map[string]uint64 // mnemonic -> dynamic count
}

// Stats returns the instruction-mix counters accumulated so far, with
// the segments run since the last read folded in.
func (c *CPU) Stats() Stats {
	c.fold()
	s := Stats{
		Instructions: c.InstCount,
		BranchTaken:  c.taken,
		PerOp:        make(map[string]uint64),
	}
	for op, n := range c.opCounts {
		if n == 0 {
			continue
		}
		o := isa.Op(op)
		s.PerOp[o.Name()] = n
		switch {
		case o.IsLoad():
			s.Loads += n
		case o.IsStore():
			s.Stores += n
		case o.IsJump():
			s.Jumps += n
		case o.IsBranch():
			s.Branches += n
		}
		if o.IsFP() {
			s.FPOps += n
		}
	}
	return s
}

// DefaultMaxInstructions bounds a Run when the caller sets no explicit cap.
const DefaultMaxInstructions = 2_000_000_000

// New creates a CPU with the program pre-decoded, PC at the program base,
// the stack pointer initialised, and an empty data memory attached if m is
// nil. Programs containing undecodable words fail immediately rather than
// at execution time.
func New(prog Program, m *mem.Memory) (*CPU, error) {
	if len(prog.Words) == 0 {
		return nil, fmt.Errorf("cpu: empty program")
	}
	dec := make([]isa.Inst, len(prog.Words))
	for i, w := range prog.Words {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("cpu: word %d (pc %#x): %w", i, prog.Base+uint32(4*i), err)
		}
		dec[i] = in
	}
	segEnd := make([]int32, len(dec))
	end := int32(len(dec) - 1)
	for i := len(dec) - 1; i >= 0; i-- {
		if dec[i].Op.IsControl() {
			end = int32(i)
		}
		segEnd[i] = end
	}
	if m == nil {
		m = mem.New()
	}
	c := &CPU{
		PC:        prog.Base,
		Mem:       m,
		Stdout:    io.Discard,
		prog:      prog,
		spanFirst: prog.Base,
		decoded:   dec,
		segEnd:    segEnd,
		entries:   make([]uint64, len(prog.Words)),
		profile:   make([]uint64, len(prog.Words)),
	}
	c.GPR[isa.SP] = mem.StackBase
	c.GPR[isa.GP] = mem.DataBase + 0x8000
	return c, nil
}

// Program returns the program the CPU executes.
func (c *CPU) Program() Program { return c.prog }

// Profile returns the per-instruction execution counts, indexed like
// Program().Words, with the segments run since the last read folded in.
// The slice aliases live state; copy before mutating.
func (c *CPU) Profile() []uint64 {
	c.fold()
	return c.profile
}

// fold charges the pending segment entries to the profile and the op
// counts. An entry at i ran i..segEnd[i], and the entries of one segment
// all end at its last instruction, so a running sum that restarts after
// each segment end charges every index in one pass.
func (c *CPU) fold() {
	var run uint64
	for i, n := range c.entries {
		if n != 0 {
			run += n
			c.entries[i] = 0
		}
		if run != 0 {
			c.profile[i] += run
			c.opCounts[c.decoded[i].Op&127] += run
			if int(c.segEnd[i]) == i {
				run = 0
			}
		}
	}
}

// charge counts the instructions at indices i..k, executed one by one
// rather than as a whole segment.
func (c *CPU) charge(i, k int) {
	for j := i; j <= k; j++ {
		c.profile[j]++
		c.opCounts[c.decoded[j].Op&127]++
	}
	c.InstCount += uint64(k - i + 1)
}

// Run executes instructions until the program exits via syscall, an
// execution error occurs, or the instruction cap is hit.
func (c *CPU) Run() error { return c.RunCtx(context.Background()) }

// pollInterval is the most instructions RunCtx executes between two
// polls of its context.
const pollInterval = 1 << 16

// RunCtx is Run under a context: it executes in chunks of at most
// pollInterval instructions and stops with ctx.Err() between chunks once
// the context is done. Inside a chunk it dispatches whole segments: one
// text-bounds and chunk-bound check, one segment-entry count and one span
// and taken-branch update per segment, the opcode switch (and OnFetch,
// when set) per instruction. A segment that would cross the chunk bound
// finishes through Step, so the bound, and with it the instruction cap,
// is met exactly. A fault inside a segment charges the instructions up to
// and including the faulting one, as Step would.
func (c *CPU) RunCtx(ctx context.Context) error {
	for !c.Halted {
		max := c.MaxInstructions
		if max == 0 {
			max = DefaultMaxInstructions
		}
		if c.InstCount >= max {
			return fmt.Errorf("cpu: instruction cap %d exceeded at pc %#x", max, c.PC)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.runChunk(c.InstCount + min(max-c.InstCount, pollInterval)); err != nil {
			return err
		}
	}
	return nil
}

// runChunk runs segments until the program halts or InstCount reaches
// limit.
func (c *CPU) runChunk(limit uint64) error {
	for !c.Halted && c.InstCount < limit {
		if !c.prog.Contains(c.PC) {
			return fmt.Errorf("cpu: pc %#x outside text segment", c.PC)
		}
		i := c.prog.Index(c.PC)
		end := int(c.segEnd[i])
		n := uint64(end - i + 1)
		if n > limit-c.InstCount {
			for !c.Halted && c.InstCount < limit {
				if err := c.Step(); err != nil {
					return err
				}
			}
			return nil
		}
		next, err := c.exec(i, end)
		if err != nil {
			c.charge(i, c.prog.Index(c.PC))
			return err
		}
		c.entries[i]++
		c.InstCount += n
		c.transfer(next)
	}
	return nil
}

// Step fetches, decodes and executes a single instruction, counting it
// directly in the profile and the op counts. It is the per-instruction
// reference the segment loop must match, and RunCtx finishes through it
// any segment that would cross a chunk bound.
func (c *CPU) Step() error {
	if c.Halted {
		return fmt.Errorf("cpu: step after halt")
	}
	if !c.prog.Contains(c.PC) {
		return fmt.Errorf("cpu: pc %#x outside text segment", c.PC)
	}
	idx := c.prog.Index(c.PC)
	c.charge(idx, idx)
	next, err := c.exec(idx, idx)
	if err != nil {
		return err
	}
	c.transfer(next)
	return nil
}

// transfer moves the PC from the instruction just executed at c.PC to
// next. A successor other than pc+4 closes the open span (and counts a
// taken branch); a halt reports the open span and leaves the PC in place.
func (c *CPU) transfer(next uint32) {
	if next != c.PC+4 {
		if c.decoded[c.prog.Index(c.PC)].Op.IsBranch() {
			c.taken++
		}
		if c.OnSpan != nil {
			c.OnSpan(c.spanFirst, c.PC)
		}
		c.spanFirst = next
	}
	if !c.Halted {
		c.PC = next
	} else if c.OnSpan != nil {
		c.OnSpan(c.spanFirst, c.PC)
	}
}

// exec executes the instructions at text indices i..end, which lie in one
// segment: only the one at end may transfer control. It calls OnFetch
// before each, leaves c.PC at the last instruction it executed (the
// faulting one on error) and returns that instruction's successor. It
// neither counts nor checks bounds; its callers do. Register indices are
// masked to five bits, which decoded fields never exceed, so the register
// files are indexed with no bounds check.
func (c *CPU) exec(i, end int) (uint32, error) {
	fetch := c.OnFetch
	seg := c.decoded[i : end+1]
	c.PC = c.prog.Base + uint32(i)<<2
	for k := range seg {
		if fetch != nil {
			fetch(c.PC, c.prog.Words[i+k])
		}
		in := &seg[k]
		next := c.PC + 4
		switch in.Op {
		case isa.OpSLL:
			c.setGPR(in.Rd, c.GPR[in.Rt&31]<<in.Shamt)
		case isa.OpSRL:
			c.setGPR(in.Rd, c.GPR[in.Rt&31]>>in.Shamt)
		case isa.OpSRA:
			c.setGPR(in.Rd, uint32(int32(c.GPR[in.Rt&31])>>in.Shamt))
		case isa.OpSLLV:
			c.setGPR(in.Rd, c.GPR[in.Rt&31]<<(c.GPR[in.Rs&31]&31))
		case isa.OpSRLV:
			c.setGPR(in.Rd, c.GPR[in.Rt&31]>>(c.GPR[in.Rs&31]&31))
		case isa.OpSRAV:
			c.setGPR(in.Rd, uint32(int32(c.GPR[in.Rt&31])>>(c.GPR[in.Rs&31]&31)))
		case isa.OpJR:
			next = c.GPR[in.Rs&31]
		case isa.OpJALR:
			c.setGPR(in.Rd, c.PC+4)
			next = c.GPR[in.Rs&31]
		case isa.OpSYSCALL:
			if err := c.syscall(); err != nil {
				return 0, err
			}
		case isa.OpBREAK:
			return 0, fmt.Errorf("cpu: break at pc %#x", c.PC)
		case isa.OpMFHI:
			c.setGPR(in.Rd, c.HI)
		case isa.OpMTHI:
			c.HI = c.GPR[in.Rs&31]
		case isa.OpMFLO:
			c.setGPR(in.Rd, c.LO)
		case isa.OpMTLO:
			c.LO = c.GPR[in.Rs&31]
		case isa.OpMULT:
			prod := int64(int32(c.GPR[in.Rs&31])) * int64(int32(c.GPR[in.Rt&31]))
			c.LO, c.HI = uint32(prod), uint32(prod>>32)
		case isa.OpMULTU:
			prod := uint64(c.GPR[in.Rs&31]) * uint64(c.GPR[in.Rt&31])
			c.LO, c.HI = uint32(prod), uint32(prod>>32)
		case isa.OpDIV:
			d := int32(c.GPR[in.Rt&31])
			if d == 0 {
				return 0, fmt.Errorf("cpu: integer divide by zero at pc %#x", c.PC)
			}
			n := int32(c.GPR[in.Rs&31])
			c.LO, c.HI = uint32(n/d), uint32(n%d)
		case isa.OpDIVU:
			d := c.GPR[in.Rt&31]
			if d == 0 {
				return 0, fmt.Errorf("cpu: integer divide by zero at pc %#x", c.PC)
			}
			n := c.GPR[in.Rs&31]
			c.LO, c.HI = n/d, n%d
		case isa.OpADD, isa.OpADDU:
			// Overflow traps are not modelled; ADD behaves as ADDU.
			c.setGPR(in.Rd, c.GPR[in.Rs&31]+c.GPR[in.Rt&31])
		case isa.OpSUB, isa.OpSUBU:
			c.setGPR(in.Rd, c.GPR[in.Rs&31]-c.GPR[in.Rt&31])
		case isa.OpAND:
			c.setGPR(in.Rd, c.GPR[in.Rs&31]&c.GPR[in.Rt&31])
		case isa.OpOR:
			c.setGPR(in.Rd, c.GPR[in.Rs&31]|c.GPR[in.Rt&31])
		case isa.OpXOR:
			c.setGPR(in.Rd, c.GPR[in.Rs&31]^c.GPR[in.Rt&31])
		case isa.OpNOR:
			c.setGPR(in.Rd, ^(c.GPR[in.Rs&31] | c.GPR[in.Rt&31]))
		case isa.OpSLT:
			c.setGPR(in.Rd, b2u(int32(c.GPR[in.Rs&31]) < int32(c.GPR[in.Rt&31])))
		case isa.OpSLTU:
			c.setGPR(in.Rd, b2u(c.GPR[in.Rs&31] < c.GPR[in.Rt&31]))
		case isa.OpBLTZ:
			if int32(c.GPR[in.Rs&31]) < 0 {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpBGEZ:
			if int32(c.GPR[in.Rs&31]) >= 0 {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpJ:
			next = (c.PC+4)&0xf0000000 | in.Target<<2
		case isa.OpJAL:
			c.setGPR(isa.RA, c.PC+4)
			next = (c.PC+4)&0xf0000000 | in.Target<<2
		case isa.OpBEQ:
			if c.GPR[in.Rs&31] == c.GPR[in.Rt&31] {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpBNE:
			if c.GPR[in.Rs&31] != c.GPR[in.Rt&31] {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpBLEZ:
			if int32(c.GPR[in.Rs&31]) <= 0 {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpBGTZ:
			if int32(c.GPR[in.Rs&31]) > 0 {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpADDI, isa.OpADDIU:
			c.setGPR(in.Rt, c.GPR[in.Rs&31]+uint32(in.Imm))
		case isa.OpSLTI:
			c.setGPR(in.Rt, b2u(int32(c.GPR[in.Rs&31]) < in.Imm))
		case isa.OpSLTIU:
			c.setGPR(in.Rt, b2u(c.GPR[in.Rs&31] < uint32(in.Imm)))
		case isa.OpANDI:
			c.setGPR(in.Rt, c.GPR[in.Rs&31]&uint32(uint16(in.Imm)))
		case isa.OpORI:
			c.setGPR(in.Rt, c.GPR[in.Rs&31]|uint32(uint16(in.Imm)))
		case isa.OpXORI:
			c.setGPR(in.Rt, c.GPR[in.Rs&31]^uint32(uint16(in.Imm)))
		case isa.OpLUI:
			c.setGPR(in.Rt, uint32(uint16(in.Imm))<<16)
		case isa.OpLB:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			b := c.Mem.LoadByte(addr)
			c.data(addr, uint32(b), false)
			c.setGPR(in.Rt, uint32(int32(int8(b))))
		case isa.OpLBU:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			b := c.Mem.LoadByte(addr)
			c.data(addr, uint32(b), false)
			c.setGPR(in.Rt, uint32(b))
		case isa.OpLH:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			v, err := c.Mem.LoadHalf(addr)
			if err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, uint32(v), false)
			c.setGPR(in.Rt, uint32(int32(int16(v))))
		case isa.OpLHU:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			v, err := c.Mem.LoadHalf(addr)
			if err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, uint32(v), false)
			c.setGPR(in.Rt, uint32(v))
		case isa.OpLW:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			v, err := c.Mem.LoadWord(addr)
			if err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, v, false)
			c.setGPR(in.Rt, v)
		case isa.OpSB:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			c.data(addr, uint32(byte(c.GPR[in.Rt&31])), true)
			c.Mem.StoreByte(addr, byte(c.GPR[in.Rt&31]))
		case isa.OpSH:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			if err := c.Mem.StoreHalf(addr, uint16(c.GPR[in.Rt&31])); err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, uint32(uint16(c.GPR[in.Rt&31])), true)
		case isa.OpSW:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			if err := c.Mem.StoreWord(addr, c.GPR[in.Rt&31]); err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, c.GPR[in.Rt&31], true)
		case isa.OpLWC1:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			v, err := c.Mem.LoadWord(addr)
			if err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, v, false)
			c.FPR[in.Ft&31] = math.Float32frombits(v)
		case isa.OpSWC1:
			addr := c.GPR[in.Rs&31] + uint32(in.Imm)
			if err := c.Mem.StoreWord(addr, math.Float32bits(c.FPR[in.Ft&31])); err != nil {
				return 0, c.memErr(err)
			}
			c.data(addr, math.Float32bits(c.FPR[in.Ft&31]), true)
		case isa.OpMFC1:
			c.setGPR(in.Rt, math.Float32bits(c.FPR[in.Fs&31]))
		case isa.OpMTC1:
			c.FPR[in.Fs&31] = math.Float32frombits(c.GPR[in.Rt&31])
		case isa.OpBC1F:
			if !c.FCC {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpBC1T:
			if c.FCC {
				next = c.branchTarget(in.Imm)
			}
		case isa.OpADDS:
			c.FPR[in.Fd&31] = c.FPR[in.Fs&31] + c.FPR[in.Ft&31]
		case isa.OpSUBS:
			c.FPR[in.Fd&31] = c.FPR[in.Fs&31] - c.FPR[in.Ft&31]
		case isa.OpMULS:
			c.FPR[in.Fd&31] = c.FPR[in.Fs&31] * c.FPR[in.Ft&31]
		case isa.OpDIVS:
			c.FPR[in.Fd&31] = c.FPR[in.Fs&31] / c.FPR[in.Ft&31]
		case isa.OpSQRTS:
			c.FPR[in.Fd&31] = float32(math.Sqrt(float64(c.FPR[in.Fs&31])))
		case isa.OpABSS:
			c.FPR[in.Fd&31] = float32(math.Abs(float64(c.FPR[in.Fs&31])))
		case isa.OpMOVS:
			c.FPR[in.Fd&31] = c.FPR[in.Fs&31]
		case isa.OpNEGS:
			c.FPR[in.Fd&31] = -c.FPR[in.Fs&31]
		case isa.OpCVTWS:
			c.FPR[in.Fd&31] = math.Float32frombits(uint32(int32(c.FPR[in.Fs&31])))
		case isa.OpCVTSW:
			c.FPR[in.Fd&31] = float32(int32(math.Float32bits(c.FPR[in.Fs&31])))
		case isa.OpCEQS:
			c.FCC = c.FPR[in.Fs&31] == c.FPR[in.Ft&31]
		case isa.OpCLTS:
			c.FCC = c.FPR[in.Fs&31] < c.FPR[in.Ft&31]
		case isa.OpCLES:
			c.FCC = c.FPR[in.Fs&31] <= c.FPR[in.Ft&31]
		default:
			return 0, fmt.Errorf("cpu: unimplemented op %s at pc %#x", in.Op, c.PC)
		}
		if k == len(seg)-1 {
			return next, nil
		}
		c.PC = next
	}
	panic("cpu: empty segment")
}

func (c *CPU) data(addr, v uint32, store bool) {
	if c.OnData != nil {
		c.OnData(addr, v, store)
	}
}

func (c *CPU) setGPR(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.GPR[r&31] = v
	}
}

func (c *CPU) branchTarget(off int32) uint32 {
	return c.PC + 4 + uint32(off)<<2
}

func (c *CPU) memErr(err error) error {
	return fmt.Errorf("cpu: pc %#x: %w", c.PC, err)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (c *CPU) syscall() error {
	switch c.GPR[isa.V0] {
	case SysPrintInt:
		fmt.Fprintf(c.Stdout, "%d", int32(c.GPR[isa.A0]))
	case SysPrintFloat:
		fmt.Fprintf(c.Stdout, "%g", c.FPR[12])
	case SysPrintString:
		fmt.Fprint(c.Stdout, c.Mem.LoadString(c.GPR[isa.A0], 1<<16))
	case SysPrintChar:
		fmt.Fprintf(c.Stdout, "%c", rune(c.GPR[isa.A0]))
	case SysExit:
		c.Halted = true
		c.ExitCode = 0
	case SysExit2:
		c.Halted = true
		c.ExitCode = int(int32(c.GPR[isa.A0]))
	default:
		return fmt.Errorf("cpu: unknown syscall %d at pc %#x", c.GPR[isa.V0], c.PC)
	}
	return nil
}
