// Package workloads provides the six DSP/numerical benchmark kernels of
// the paper's evaluation — matrix multiplication (mmul), successive
// over-relaxation (sor), extrapolated Jacobi iteration (ej), a radix-2 FFT
// (fft), a tridiagonal system solver (tri) and LU decomposition (lu) — as
// MR32 assembly programs with memory-image setup and golden pure-Go
// references.
//
// The golden references execute the identical float32 operation sequence
// as the assembly kernels, so results are compared bit-exactly: any
// simulator or kernel bug fails the check, which is what qualifies these
// programs to drive the power measurements.
package workloads

import (
	"fmt"
	"math"
	"strconv"

	"imtrans/internal/cpu"
	"imtrans/internal/mem"
)

// Params scales a workload. N is the problem size (matrix/grid dimension
// or FFT length); Iters is the sweep/repetition count where the kernel has
// one. Zero fields take the workload's paper-scale defaults.
type Params struct {
	N     int
	Iters int
}

// Workload is one runnable benchmark: assembly source generation, memory
// setup, and a golden check.
type Workload struct {
	Name        string
	Description string
	// Defaults are the paper-scale parameters (Figure 6).
	Defaults Params
	// TestParams are small parameters for fast unit tests.
	TestParams Params
	// Source renders the assembly program for the given parameters.
	Source func(p Params) string
	// Setup writes the input arrays into data memory.
	Setup func(m *mem.Memory, p Params) error
	// Check recomputes the kernel in Go (same float32 operation order)
	// and compares the simulator's memory bit-exactly.
	Check func(m *mem.Memory, p Params) error

	// MinN is the smallest problem size at which the kernel's loops
	// terminate and its golden check holds.
	MinN int
	// Pow2 restricts N to powers of two (the radix-2 FFT).
	Pow2 bool
	// Insts bounds from above the dynamic instruction count of one run
	// at the filled parameters p.
	Insts func(p Params) float64
	// Bytes bounds from above the data one run at the filled parameters
	// p lays out from mem.DataBase: its input, output and scratch arrays.
	Bytes func(p Params) float64
}

// MaxDataBytes caps the data a kernel scale may lay out. Simulated
// memory is paged on demand, and setup builds each input on the host
// first, so an instruction count under the cap can still ask for
// gigabytes before the first instruction runs (ej at n = 10500 with one
// sweep lays out 0.88 GB). 256 MiB is the smallest power of two above
// every kernel's largest scale at its default iteration count (sor and
// iir, about 157 MB each).
const MaxDataBytes = 1 << 28

// Fill completes p with the workload's defaults.
func (w *Workload) Fill(p Params) Params {
	if p.N == 0 {
		p.N = w.Defaults.N
	}
	if p.Iters == 0 {
		p.Iters = w.Defaults.Iters
	}
	return p
}

// Validate reports whether the kernel can run at p (zero fields take the
// defaults): N at least MinN and, for fft, a power of two; Iters at least
// one; a run that fits the simulator's default instruction cap; and data
// within MaxDataBytes.
// Outside that domain a kernel panics in setup, fails its golden check or
// spins until the cap. The error names the scale; callers name the kernel.
func (w *Workload) Validate(p Params) error {
	p = w.Fill(p)
	switch {
	case p.N < w.MinN:
		return fmt.Errorf("n %d is below the smallest size %d", p.N, w.MinN)
	case w.Pow2 && p.N&(p.N-1) != 0:
		return fmt.Errorf("n %d is not a power of two", p.N)
	case p.Iters < 1:
		return fmt.Errorf("iters %d is below 1", p.Iters)
	}
	if insts := w.Insts(p); insts > cpu.DefaultMaxInstructions {
		return fmt.Errorf("n %d with iters %d runs about %.4g instructions, over the simulator's %d-instruction cap",
			p.N, p.Iters, insts, cpu.DefaultMaxInstructions)
	}
	if bytes := w.Bytes(p); bytes > MaxDataBytes {
		return fmt.Errorf("n %d with iters %d lays out about %.4g bytes of data, over the %d-byte cap",
			p.N, p.Iters, bytes, MaxDataBytes)
	}
	return nil
}

// All returns the six paper benchmarks in the paper's column order.
func All() []*Workload {
	return []*Workload{MMul(), SOR(), EJ(), FFT(), Tri(), LU()}
}

// Extras returns additional kernels beyond the paper's suite — an
// integer-only checksum, a biquad filter cascade and a 3x3 convolution —
// used to check the technique generalises across opcode mixes and basic
// block shapes.
func Extras() []*Workload {
	return []*Workload{CRC32(), IIR(), Conv2D()}
}

// ByName returns the workload (paper suite or extra) with the given name.
func ByName(name string) (*Workload, error) {
	for _, w := range append(All(), Extras()...) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// base addresses of the kernel arrays within the data segment. Every
// kernel lays its arrays consecutively from mem.DataBase; the helpers
// below compute the per-array offsets.
const dataBase = mem.DataBase

// lcg is the deterministic value generator used for input arrays: a
// 32-bit linear congruential generator mapped to floats in [0, 1). Both
// Setup and the golden references derive inputs from it, so the memory
// image and the reference agree by construction.
type lcg uint32

func newLCG(seed uint32) lcg { return lcg(seed*2654435761 + 12345) }

func (l *lcg) next() uint32 {
	*l = *l*1664525 + 1013904223
	return uint32(*l)
}

// nextFloat returns the next value in [0, 1).
func (l *lcg) nextFloat() float32 {
	return float32(l.next()>>8) / float32(1<<24)
}

// storeMatrix writes an n*m float32 matrix row-major at addr.
func storeMatrix(m *mem.Memory, addr uint32, vals []float32) error {
	return m.StoreFloats(addr, vals)
}

// compareFloats checks the simulator memory against the golden values
// bit-exactly and reports the first few mismatches.
func compareFloats(m *mem.Memory, addr uint32, want []float32, what string) error {
	got, err := m.LoadFloats(addr, len(want))
	if err != nil {
		return err
	}
	bad := 0
	firstIdx := -1
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			if firstIdx < 0 {
				firstIdx = i
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("workloads: %s: %d/%d values differ (first at %d: got %v, want %v)",
			what, bad, len(want), firstIdx, got[firstIdx], want[firstIdx])
	}
	return nil
}

// fconst renders a float32 constant for li.s so that assembling it
// reproduces the identical bits the golden reference uses.
func fconst(f float32) string {
	return strconv.FormatFloat(float64(f), 'g', -1, 32)
}

// exitSeq is the common program epilogue.
const exitSeq = `
	li $v0, 10
	syscall
`
