package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// sorOmega is the over-relaxation factor. Its exact value is irrelevant to
// the power study (the golden reference mirrors it bit-exactly), but 1.25
// keeps the sweep numerically tame.
const sorOmega = 1.25

// SOR is in-place successive over-relaxation on a square grid: each sweep
// updates interior points from their four neighbours in lexicographic
// order (Gauss-Seidel style), the paper's sor benchmark (256x256).
func SOR() *Workload {
	w := &Workload{
		Name:        "sor",
		Description: "successive over-relaxation, 5-point stencil, in-place sweeps",
		Defaults:    Params{N: 256, Iters: 3},
		TestParams:  Params{N: 10, Iters: 2},
		MinN:        3,
		// (n-2)² interior points of a 17-instruction update per sweep.
		Insts: func(p Params) float64 {
			m := float64(p.N - 2)
			return float64(p.Iters)*(17*m*m+7*m+3) + 32
		},
		// One n² grid, updated in place.
		Bytes: func(p Params) float64 {
			n := float64(p.N)
			return 4 * n * n
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		u := uint32(dataBase)
		// f4 = omega/4, f5 = 1-omega.
		return fmt.Sprintf(`
# sor: N=%d, %d sweeps, u[i][j] = (1-w)*u + w/4*(up+down+left+right)
	li $s0, %d          # U base
	li $s3, %d          # N
	sll $s4, $s3, 2     # row stride
	addiu $s6, $s3, -1  # N-1
	li $s5, %d          # sweeps
	li.s $f4, %v
	li.s $f5, %v
titer:
	li $t0, 1           # i
irow:
	mul  $t2, $t0, $s4
	addu $t2, $s0, $t2
	addiu $t3, $t2, 4   # ptr = &U[i][1]
	li $t1, 1           # j
jcol:
	l.s $f0, 0($t3)     # centre
	l.s $f1, -4($t3)    # left
	l.s $f2, 4($t3)     # right
	add.s $f1, $f1, $f2
	subu $t4, $t3, $s4
	l.s $f2, 0($t4)     # up
	add.s $f1, $f1, $f2
	addu $t4, $t3, $s4
	l.s $f2, 0($t4)     # down
	add.s $f1, $f1, $f2
	mul.s $f1, $f1, $f4
	mul.s $f0, $f0, $f5
	add.s $f0, $f0, $f1
	s.s $f0, 0($t3)
	addiu $t3, $t3, 4
	addiu $t1, $t1, 1
	bne $t1, $s6, jcol
	addiu $t0, $t0, 1
	bne $t0, $s6, irow
	addiu $s5, $s5, -1
	bgtz $s5, titer
`+exitSeq, p.N, p.Iters, u, p.N, p.Iters,
			fconst(float32(sorOmega)/4), fconst(1-float32(sorOmega)))
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		u := sorInput(p.N)
		return storeMatrix(m, dataBase, u)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		want := sorGolden(p.N, p.Iters)
		return compareFloats(m, dataBase, want, "sor U")
	}
	return w
}

func sorInput(n int) []float32 {
	rng := newLCG(0x22)
	u := make([]float32, n*n)
	for i := range u {
		u[i] = rng.nextFloat()
	}
	return u
}

// sorGolden mirrors the kernel's float32 operation order exactly:
// left+right, +up, +down, *(w/4); centre*(1-w); sum.
func sorGolden(n, iters int) []float32 {
	u := sorInput(n)
	w4 := float32(sorOmega) / 4
	w1 := 1 - float32(sorOmega)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				c := u[i*n+j]
				s := u[i*n+j-1] + u[i*n+j+1]
				s += u[(i-1)*n+j]
				s += u[(i+1)*n+j]
				u[i*n+j] = c*w1 + s*w4
			}
		}
	}
	return u
}
