package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// ejOmega is the extrapolation factor (exactly representable in float32).
const ejOmega = 0.9375

// EJ is the extrapolated Jacobi iterative method on a square grid: each
// sweep computes v[i][j] = (1-w)*u[i][j] + w/4*(up+down+left+right) from
// the previous iterate and the buffers swap, the paper's ej benchmark
// (128x128 grid).
func EJ() *Workload {
	w := &Workload{
		Name:        "ej",
		Description: "extrapolated Jacobi iteration, double-buffered 5-point stencil",
		Defaults:    Params{N: 128, Iters: 60},
		TestParams:  Params{N: 10, Iters: 3},
		MinN:        3,
		// (n-2)² interior points of an 18-instruction update per sweep.
		Insts: func(p Params) float64 {
			m := float64(p.N - 2)
			return float64(p.Iters)*(18*m*m+9*m+6) + 32
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		n := uint32(p.N)
		u := uint32(dataBase)
		v := u + 4*n*n
		return fmt.Sprintf(`
# ej: N=%d, %d sweeps, v = (1-w)*u + w/4*stencil(u), buffers swap each sweep
	li $s0, %d          # u (read)
	li $s1, %d          # v (write)
	li $s3, %d          # N
	sll $s4, $s3, 2     # row stride
	addiu $s6, $s3, -1  # N-1
	li $s5, %d          # sweeps
	li.s $f4, %s        # w/4
	li.s $f5, %s        # 1-w
titer:
	li $t0, 1           # i
irow:
	mul  $t2, $t0, $s4
	addu $t3, $s0, $t2
	addiu $t3, $t3, 4   # rptr = &u[i][1]
	addu $t5, $s1, $t2
	addiu $t5, $t5, 4   # wptr = &v[i][1]
	li $t1, 1           # j
jcol:
	l.s $f0, 0($t3)
	l.s $f1, -4($t3)
	l.s $f2, 4($t3)
	add.s $f1, $f1, $f2
	subu $t4, $t3, $s4
	l.s $f2, 0($t4)
	add.s $f1, $f1, $f2
	addu $t4, $t3, $s4
	l.s $f2, 0($t4)
	add.s $f1, $f1, $f2
	mul.s $f1, $f1, $f4
	mul.s $f0, $f0, $f5
	add.s $f0, $f0, $f1
	s.s $f0, 0($t5)
	addiu $t3, $t3, 4
	addiu $t5, $t5, 4
	addiu $t1, $t1, 1
	bne $t1, $s6, jcol
	addiu $t0, $t0, 1
	bne $t0, $s6, irow
	move $t9, $s0       # swap buffers
	move $s0, $s1
	move $s1, $t9
	addiu $s5, $s5, -1
	bgtz $s5, titer
`+exitSeq, p.N, p.Iters, u, v, p.N, p.Iters,
			fconst(float32(ejOmega)/4), fconst(1-float32(ejOmega)))
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		u := ejInput(p.N)
		if err := storeMatrix(m, dataBase, u); err != nil {
			return err
		}
		// The write buffer starts as a copy so untouched borders match
		// the golden reference after swaps.
		return storeMatrix(m, dataBase+4*n*n, u)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		want := ejGolden(p.N, p.Iters)
		// After an odd number of sweeps the result lives in the v buffer,
		// after an even number back in u.
		addr := uint32(dataBase)
		if p.Iters%2 == 1 {
			addr += 4 * n * n
		}
		return compareFloats(m, addr, want, "ej result")
	}
	return w
}

func ejInput(n int) []float32 {
	rng := newLCG(0x33)
	u := make([]float32, n*n)
	for i := range u {
		u[i] = rng.nextFloat()
	}
	return u
}

// ejGolden mirrors the kernel's float32 operation order and buffer swaps.
func ejGolden(n, iters int) []float32 {
	u := ejInput(n)
	v := append([]float32(nil), u...)
	w4 := float32(ejOmega) / 4
	w1 := 1 - float32(ejOmega)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				c := u[i*n+j]
				s := u[i*n+j-1] + u[i*n+j+1]
				s += u[(i-1)*n+j]
				s += u[(i+1)*n+j]
				v[i*n+j] = c*w1 + s*w4
			}
		}
		u, v = v, u
	}
	return u
}
