package imtrans

import (
	"bytes"
	"context"
	"fmt"

	"imtrans/internal/cpu"
	"imtrans/internal/mem"
	"imtrans/internal/trace"
)

// Memory exposes the simulator's data memory for workload setup and result
// inspection.
type Memory struct {
	m *mem.Memory
}

// StoreWord writes a 32-bit word at a 4-byte-aligned address.
func (m Memory) StoreWord(addr, v uint32) error { return m.m.StoreWord(addr, v) }

// LoadWord reads a 32-bit word from a 4-byte-aligned address.
func (m Memory) LoadWord(addr uint32) (uint32, error) { return m.m.LoadWord(addr) }

// StoreWords writes consecutive words starting at addr.
func (m Memory) StoreWords(addr uint32, ws []uint32) error { return m.m.StoreWords(addr, ws) }

// LoadWords reads n consecutive words starting at addr.
func (m Memory) LoadWords(addr uint32, n int) ([]uint32, error) { return m.m.LoadWords(addr, n) }

// StoreFloats writes consecutive float32 values starting at addr.
func (m Memory) StoreFloats(addr uint32, fs []float32) error { return m.m.StoreFloats(addr, fs) }

// LoadFloats reads n consecutive float32 values starting at addr.
func (m Memory) LoadFloats(addr uint32, n int) ([]float32, error) { return m.m.LoadFloats(addr, n) }

// StoreByte writes a single byte.
func (m Memory) StoreByte(addr uint32, v byte) { m.m.StoreByte(addr, v) }

// LoadByte reads a single byte.
func (m Memory) LoadByte(addr uint32) byte { return m.m.LoadByte(addr) }

// DataBase is the conventional start of the data segment.
const DataBase = mem.DataBase

// Machine is a single-use MR32 simulator instance: construct, optionally
// initialise memory, Run once, inspect results.
type Machine struct {
	c      *cpu.CPU
	stdout bytes.Buffer
	ran    bool
}

// NewMachine loads the program (text pre-decoded, data segment copied into
// memory) and returns a ready-to-run machine.
func NewMachine(p *Program) (*Machine, error) {
	c, err := newMachine(p, nil)
	if err != nil {
		return nil, err
	}
	mc := &Machine{c: c}
	c.Stdout = &mc.stdout
	return mc, nil
}

// ProfileProgram makes one bare profiling run of p and returns its
// per-static-instruction execution counts, the profile EncodeProgram and
// BuildDeployment plan from. setup, if non-nil, initialises data memory
// first. The run drives no bus model and keeps no fetch trace, so its
// memory does not grow with the program's dynamic length; a cancelled
// ctx stops it with an error wrapping ctx.Err().
func ProfileProgram(ctx context.Context, p *Program, setup func(Memory) error) ([]uint64, error) {
	c, err := newMachine(p, setup)
	if err != nil {
		return nil, err
	}
	if err := c.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("imtrans: profiling run: %w", err)
	}
	return append([]uint64(nil), c.Profile()...), nil
}

// newMachine loads p into a fresh CPU, running setup, if non-nil, over
// its data memory first. Every simulation in this package loads through
// it.
func newMachine(p *Program, setup func(Memory) error) (*cpu.CPU, error) {
	if p == nil || len(p.Text) == 0 {
		return nil, fmt.Errorf("imtrans: empty program")
	}
	m := mem.New()
	for i, b := range p.Data {
		m.StoreByte(p.DataBase+uint32(i), b)
	}
	if setup != nil {
		if err := setup(Memory{m}); err != nil {
			return nil, fmt.Errorf("imtrans: setup: %w", err)
		}
	}
	return cpu.New(cpu.Program{Base: p.TextBase, Words: p.Text}, m)
}

// Memory gives access to the machine's data memory.
func (m *Machine) Memory() Memory { return Memory{m.c.Mem} }

// SetMaxInstructions bounds the run (0 keeps the default cap).
func (m *Machine) SetMaxInstructions(n uint64) { m.c.MaxInstructions = n }

// InstructionMix summarises the dynamic opcode mix of a run.
type InstructionMix struct {
	Loads       uint64
	Stores      uint64
	Branches    uint64
	BranchTaken uint64
	Jumps       uint64
	FPOps       uint64
	PerOp       map[string]uint64 // mnemonic -> dynamic count
}

// RunResult summarises one complete program execution.
type RunResult struct {
	Instructions uint64   // dynamic instructions executed
	Transitions  uint64   // instruction-bus transitions (baseline)
	PerLine      []uint64 // per-bus-line transition counts
	Profile      []uint64 // per-static-instruction execution counts
	Mix          InstructionMix
	Output       string // syscall console output
	ExitCode     int
}

// Run executes the program to completion while measuring baseline
// instruction-bus transitions. A machine runs once.
func (m *Machine) Run() (*RunResult, error) { return m.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation: the simulator polls ctx
// between bounded chunks of instructions and a cancelled run returns
// ctx.Err().
func (m *Machine) RunCtx(ctx context.Context) (*RunResult, error) {
	if m.ran {
		return nil, fmt.Errorf("imtrans: machine already ran")
	}
	m.ran = true
	bus := trace.NewBus(32)
	m.c.OnFetch = func(pc, word uint32) { bus.Transfer(word) }
	if err := m.c.RunCtx(ctx); err != nil {
		return nil, err
	}
	prof := m.c.Profile()
	st := m.c.Stats()
	res := &RunResult{
		Instructions: m.c.InstCount,
		Transitions:  bus.Total(),
		PerLine:      bus.PerLine(),
		Profile:      append([]uint64(nil), prof...),
		Mix: InstructionMix{
			Loads:       st.Loads,
			Stores:      st.Stores,
			Branches:    st.Branches,
			BranchTaken: st.BranchTaken,
			Jumps:       st.Jumps,
			FPOps:       st.FPOps,
			PerOp:       st.PerOp,
		},
		Output:   m.stdout.String(),
		ExitCode: m.c.ExitCode,
	}
	return res, nil
}
