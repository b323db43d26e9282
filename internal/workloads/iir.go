package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// IIR is a cascade of biquad filter sections in transposed direct form II
// — the classic DSP hot loop. N is the sample count; Iters is the number
// of cascaded sections. Coefficient and state layouts follow the usual
// embedded convention: 5 coefficients (b0 b1 b2 a1 a2) and 2 state words
// per section.
func IIR() *Workload {
	w := &Workload{
		Name:        "iir",
		Description: "biquad IIR filter cascade (transposed direct form II)",
		Defaults:    Params{N: 16384, Iters: 4},
		TestParams:  Params{N: 64, Iters: 3},
		MinN:        1,
		// A 23-instruction biquad per section, per sample.
		Insts: func(p Params) float64 {
			return float64(p.N)*(23*float64(p.Iters)+10) + 32
		},
		// 5 coefficients and 2 state words per section, then the n-sample
		// input and output.
		Bytes: func(p Params) float64 {
			return 28*float64(p.Iters) + 8*float64(p.N)
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		coef := uint32(dataBase)
		state := coef + 20*uint32(p.Iters)
		in := state + 8*uint32(p.Iters)
		out := in + 4*uint32(p.N)
		return fmt.Sprintf(`
# iir: %d samples through %d biquad sections
	li $s0, %d          # coefficients (5 per section)
	li $s1, %d          # state (2 per section)
	li $s2, %d          # input samples
	li $s3, %d          # output samples
	li $s4, %d          # N
	li $s5, %d          # sections
	li $t9, 0           # sample index
sample:
	sll  $t2, $t9, 2
	addu $t3, $s2, $t2
	l.s  $f0, 0($t3)    # x
	li $t8, 0           # section index
	move $t0, $s0       # coeff ptr
	move $t1, $s1       # state ptr
section:
	l.s $f1, 0($t0)     # b0
	l.s $f2, 4($t0)     # b1
	l.s $f3, 8($t0)     # b2
	l.s $f4, 12($t0)    # a1
	l.s $f5, 16($t0)    # a2
	l.s $f6, 0($t1)     # z1
	l.s $f7, 4($t1)     # z2
	mul.s $f8, $f1, $f0
	add.s $f8, $f8, $f6 # y = b0*x + z1
	mul.s $f9, $f2, $f0
	add.s $f9, $f9, $f7
	mul.s $f10, $f4, $f8
	sub.s $f9, $f9, $f10
	s.s  $f9, 0($t1)    # z1 = b1*x + z2 - a1*y
	mul.s $f10, $f3, $f0
	mul.s $f11, $f5, $f8
	sub.s $f10, $f10, $f11
	s.s  $f10, 4($t1)   # z2 = b2*x - a2*y
	mov.s $f0, $f8      # next section's input
	addiu $t0, $t0, 20
	addiu $t1, $t1, 8
	addiu $t8, $t8, 1
	bne  $t8, $s5, section
	addu $t3, $s3, $t2
	s.s  $f0, 0($t3)    # y[n]
	addiu $t9, $t9, 1
	bne  $t9, $s4, sample
`+exitSeq, p.N, p.Iters, coef, state, in, out, p.N, p.Iters)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		coefs, input := iirInputs(p.N, p.Iters)
		if err := m.StoreFloats(dataBase, coefs); err != nil {
			return err
		}
		// State starts zeroed (fresh memory already is).
		in := dataBase + 20*uint32(p.Iters) + 8*uint32(p.Iters)
		return m.StoreFloats(in, input)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		out := dataBase + 20*uint32(p.Iters) + 8*uint32(p.Iters) + 4*uint32(p.N)
		return compareFloats(m, out, iirGolden(p.N, p.Iters), "iir y")
	}
	return w
}

// iirInputs builds mildly low-pass section coefficients (stable poles)
// and a noisy input signal.
func iirInputs(n, sections int) (coefs, input []float32) {
	coefs = make([]float32, 5*sections)
	for s := 0; s < sections; s++ {
		v := float32(s) * 0.01
		coefs[5*s+0] = 0.2 + v  // b0
		coefs[5*s+1] = 0.3 - v  // b1
		coefs[5*s+2] = 0.2      // b2
		coefs[5*s+3] = -0.4 + v // a1
		coefs[5*s+4] = 0.1      // a2
	}
	rng := newLCG(0x88)
	input = make([]float32, n)
	for i := range input {
		input[i] = rng.nextFloat() - 0.5
	}
	return coefs, input
}

// iirGolden mirrors the kernel's float32 operation order exactly.
func iirGolden(n, sections int) []float32 {
	coefs, input := iirInputs(n, sections)
	z1 := make([]float32, sections)
	z2 := make([]float32, sections)
	out := make([]float32, n)
	for i, x := range input {
		for s := 0; s < sections; s++ {
			b0, b1, b2 := coefs[5*s], coefs[5*s+1], coefs[5*s+2]
			a1, a2 := coefs[5*s+3], coefs[5*s+4]
			y := b0*x + z1[s]
			z1[s] = b1*x + z2[s] - a1*y
			z2[s] = b2*x - a2*y
			x = y
		}
		out[i] = x
	}
	return out
}
