package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// MMul is dense float32 matrix multiplication C = A*B, the paper's mmul
// benchmark (100x100 matrices).
func MMul() *Workload {
	w := &Workload{
		Name:        "mmul",
		Description: "dense matrix multiplication C = A x B (row-major float32)",
		Defaults:    Params{N: 100, Iters: 1},
		TestParams:  Params{N: 8, Iters: 1},
		MinN:        1,
		// n² (i, j) pairs of an 8-instruction k loop plus loop overhead.
		Insts: func(p Params) float64 {
			n := float64(p.N)
			return 8*n*n*n + 10*n*n + 7*n + 32
		},
		// A, B and C, n² floats each.
		Bytes: func(p Params) float64 {
			n := float64(p.N)
			return 12 * n * n
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		n := uint32(p.N)
		a := uint32(dataBase)
		b := a + 4*n*n
		c := b + 4*n*n
		return fmt.Sprintf(`
# mmul: C[i][j] = sum_k A[i][k] * B[k][j], N=%d
	li $s0, %d          # A base
	li $s1, %d          # B base
	li $s2, %d          # C base
	li $s3, %d          # N
	sll $s4, $s3, 2     # row stride (bytes)
	li $t0, 0           # i
iloop:
	mul  $t3, $t0, $s4
	addu $s5, $s0, $t3  # &A[i][0]
	addu $s6, $s2, $t3  # &C[i][0]
	li $t1, 0           # j
jloop:
	mtc1 $zero, $f0     # acc = 0.0
	move $t3, $s5       # a_ptr
	sll  $t4, $t1, 2
	addu $t4, $s1, $t4  # b_ptr = &B[0][j]
	li $t2, 0           # k
kloop:
	l.s   $f1, 0($t3)
	l.s   $f2, 0($t4)
	mul.s $f3, $f1, $f2
	add.s $f0, $f0, $f3
	addiu $t3, $t3, 4
	addu  $t4, $t4, $s4
	addiu $t2, $t2, 1
	bne   $t2, $s3, kloop
	sll  $t5, $t1, 2
	addu $t5, $s6, $t5
	s.s  $f0, 0($t5)    # C[i][j] = acc
	addiu $t1, $t1, 1
	bne $t1, $s3, jloop
	addiu $t0, $t0, 1
	bne $t0, $s3, iloop
`+exitSeq, p.N, a, b, c, p.N)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		a, b, _ := mmulInputs(p.N)
		n := uint32(p.N)
		if err := storeMatrix(m, dataBase, a); err != nil {
			return err
		}
		return storeMatrix(m, dataBase+4*n*n, b)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		_, _, c := mmulInputs(p.N)
		n := uint32(p.N)
		return compareFloats(m, dataBase+8*n*n, c, "mmul C")
	}
	return w
}

// mmulInputs generates the input matrices and the golden product with the
// kernel's exact float32 accumulation order.
func mmulInputs(n int) (a, b, c []float32) {
	rng := newLCG(0x11)
	a = make([]float32, n*n)
	b = make([]float32, n*n)
	for i := range a {
		a[i] = rng.nextFloat()
	}
	for i := range b {
		b[i] = rng.nextFloat()
	}
	c = make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return a, b, c
}
