package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// Tri is the Thomas algorithm for tridiagonal systems: forward
// elimination producing modified coefficients followed by back
// substitution, the paper's tri benchmark (128x128 system). The solve is
// repeated Iters times into scratch arrays to provide the dynamic
// instruction volume of a kernel embedded in a larger application loop.
func Tri() *Workload {
	w := &Workload{
		Name:        "tri",
		Description: "tridiagonal solver (Thomas algorithm), repeated solves",
		Defaults:    Params{N: 128, Iters: 400},
		TestParams:  Params{N: 12, Iters: 3},
		MinN:        2,
		// A 25-instruction forward step and a 12-instruction back step per
		// row, per solve.
		Insts: func(p Params) float64 {
			return float64(p.Iters)*(37*float64(p.N-1)+17) + 32
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		n := uint32(p.N)
		a := uint32(dataBase) // sub-diagonal
		b := a + 4*n          // diagonal
		c := b + 4*n          // super-diagonal
		d := c + 4*n          // right-hand side
		cp := d + 4*n         // scratch c'
		dp := cp + 4*n        // scratch d'
		x := dp + 4*n         // solution
		return fmt.Sprintf(`
# tri: Thomas algorithm, N=%d, %d repeated solves
	li $s0, %d          # a
	li $s1, %d          # b
	li $s2, %d          # c
	li $s3, %d          # d
	li $s4, %d          # cp
	li $s5, %d          # dp
	li $s6, %d          # x
	li $s7, %d          # N
	li $t9, %d          # repetitions
rep:
	# cp[0] = c[0]/b[0]; dp[0] = d[0]/b[0]
	l.s  $f0, 0($s1)
	l.s  $f1, 0($s2)
	div.s $f2, $f1, $f0
	s.s  $f2, 0($s4)
	l.s  $f1, 0($s3)
	div.s $f3, $f1, $f0
	s.s  $f3, 0($s5)
	# forward sweep: i = 1..N-1
	li $t0, 1
fwd:
	sll  $t1, $t0, 2
	addu $t2, $s0, $t1
	l.s  $f0, 0($t2)    # a[i]
	addu $t2, $s4, $t1
	l.s  $f1, -4($t2)   # cp[i-1]
	mul.s $f4, $f0, $f1 # a[i]*cp[i-1]
	addu $t2, $s1, $t1
	l.s  $f5, 0($t2)    # b[i]
	sub.s $f5, $f5, $f4 # denom
	addu $t2, $s2, $t1
	l.s  $f6, 0($t2)    # c[i]
	div.s $f6, $f6, $f5
	addu $t2, $s4, $t1
	s.s  $f6, 0($t2)    # cp[i]
	addu $t2, $s5, $t1
	l.s  $f7, -4($t2)   # dp[i-1]
	mul.s $f8, $f0, $f7 # a[i]*dp[i-1]
	addu $t2, $s3, $t1
	l.s  $f9, 0($t2)    # d[i]
	sub.s $f9, $f9, $f8
	div.s $f9, $f9, $f5
	addu $t2, $s5, $t1
	s.s  $f9, 0($t2)    # dp[i]
	addiu $t0, $t0, 1
	bne  $t0, $s7, fwd
	# back substitution: x[N-1] = dp[N-1]
	addiu $t0, $s7, -1
	sll  $t1, $t0, 2
	addu $t2, $s5, $t1
	l.s  $f0, 0($t2)
	addu $t2, $s6, $t1
	s.s  $f0, 0($t2)
	addiu $t0, $t0, -1
back:
	sll  $t1, $t0, 2
	addu $t2, $s6, $t1
	l.s  $f1, 4($t2)    # x[i+1]
	addu $t3, $s4, $t1
	l.s  $f2, 0($t3)    # cp[i]
	mul.s $f3, $f2, $f1
	addu $t3, $s5, $t1
	l.s  $f4, 0($t3)    # dp[i]
	sub.s $f4, $f4, $f3
	s.s  $f4, 0($t2)    # x[i]
	addiu $t0, $t0, -1
	bgez $t0, back
	addiu $t9, $t9, -1
	bgtz $t9, rep
`+exitSeq, p.N, p.Iters, a, b, c, d, cp, dp, x, p.N, p.Iters)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		a, b, c, d := triInputs(p.N)
		if err := m.StoreFloats(dataBase, a); err != nil {
			return err
		}
		if err := m.StoreFloats(dataBase+4*n, b); err != nil {
			return err
		}
		if err := m.StoreFloats(dataBase+8*n, c); err != nil {
			return err
		}
		return m.StoreFloats(dataBase+12*n, d)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		x := triGolden(p.N)
		return compareFloats(m, dataBase+24*n, x, "tri x")
	}
	return w
}

// triInputs builds a diagonally dominant system so the elimination stays
// well conditioned.
func triInputs(n int) (a, b, c, d []float32) {
	rng := newLCG(0x55)
	a = make([]float32, n)
	b = make([]float32, n)
	c = make([]float32, n)
	d = make([]float32, n)
	for i := 0; i < n; i++ {
		a[i] = rng.nextFloat()
		c[i] = rng.nextFloat()
		b[i] = 4 + rng.nextFloat()
		d[i] = rng.nextFloat()
	}
	a[0], c[n-1] = 0, 0
	return a, b, c, d
}

// triGolden mirrors the kernel's operation order exactly.
func triGolden(n int) []float32 {
	a, b, c, d := triInputs(n)
	cp := make([]float32, n)
	dp := make([]float32, n)
	cp[0] = c[0] / b[0]
	dp[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		denom := b[i] - a[i]*cp[i-1]
		cp[i] = c[i] / denom
		dp[i] = (d[i] - a[i]*dp[i-1]) / denom
	}
	x := make([]float32, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x
}
