package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// LU is in-place Doolittle LU decomposition without pivoting (the input is
// made diagonally dominant so none is needed), the paper's lu benchmark
// (128x128 matrix).
func LU() *Workload {
	w := &Workload{
		Name:        "lu",
		Description: "in-place LU decomposition (Doolittle, no pivoting)",
		Defaults:    Params{N: 128, Iters: 1},
		TestParams:  Params{N: 10, Iters: 1},
		MinN:        1,
		// A 9-instruction update over each trailing submatrix.
		Insts: func(p Params) float64 {
			n := float64(p.N)
			return (6*n*n*n+5*n*n+9*n)/2 + 32
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		a := uint32(dataBase)
		return fmt.Sprintf(`
# lu: in-place Doolittle decomposition, N=%d
	li $s0, %d          # A base
	li $s3, %d          # N
	sll $s4, $s3, 2     # row stride
	li $t0, 0           # k
kloop:
	mul  $t2, $t0, $s4
	addu $s5, $s0, $t2  # &A[k][0]
	sll  $t3, $t0, 2
	addu $t4, $s5, $t3
	l.s  $f0, 0($t4)    # pivot = A[k][k]
	addiu $t1, $t0, 1   # i = k+1
	beq  $t1, $s3, knext
iloop:
	mul  $t2, $t1, $s4
	addu $s6, $s0, $t2  # &A[i][0]
	addu $t4, $s6, $t3
	l.s  $f1, 0($t4)    # A[i][k]
	div.s $f1, $f1, $f0 # l = A[i][k]/pivot
	s.s  $f1, 0($t4)    # A[i][k] = l
	addiu $t5, $t0, 1   # j = k+1
	beq  $t5, $s3, inext
	sll  $t6, $t5, 2
	addu $t7, $s5, $t6  # &A[k][j]
	addu $t8, $s6, $t6  # &A[i][j]
jloop:
	l.s  $f2, 0($t7)    # A[k][j]
	mul.s $f3, $f1, $f2
	l.s  $f4, 0($t8)    # A[i][j]
	sub.s $f4, $f4, $f3
	s.s  $f4, 0($t8)
	addiu $t7, $t7, 4
	addiu $t8, $t8, 4
	addiu $t5, $t5, 1
	bne  $t5, $s3, jloop
inext:
	addiu $t1, $t1, 1
	bne  $t1, $s3, iloop
knext:
	addiu $t0, $t0, 1
	bne  $t0, $s3, kloop
`+exitSeq, p.N, a, p.N)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		return storeMatrix(m, dataBase, luInput(p.N))
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		return compareFloats(m, dataBase, luGolden(p.N), "lu A")
	}
	return w
}

// luInput builds a diagonally dominant matrix (no pivoting required).
func luInput(n int) []float32 {
	rng := newLCG(0x66)
	a := make([]float32, n*n)
	for i := range a {
		a[i] = rng.nextFloat()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float32(n)
	}
	return a
}

// luGolden mirrors the kernel's elimination order exactly.
func luGolden(n int) []float32 {
	a := luInput(n)
	for k := 0; k < n; k++ {
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / pivot
			a[i*n+k] = l
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return a
}
