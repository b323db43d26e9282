package workloads

import (
	"fmt"

	"imtrans/internal/mem"
)

// Conv2D is a 3x3 valid convolution over a float32 image with the kernel
// held in registers and the nine taps fully unrolled — the archetypal
// image-processing hot loop, and a large straight-line basic block that
// shows the encoding at its best. Iters repeats the whole convolution.
func Conv2D() *Workload {
	w := &Workload{
		Name:        "conv2d",
		Description: "3x3 valid convolution, taps unrolled, kernel in registers",
		Defaults:    Params{N: 128, Iters: 8},
		TestParams:  Params{N: 12, Iters: 2},
		MinN:        3,
		// (n-2)² outputs of 35 instructions each, per repetition.
		Insts: func(p Params) float64 {
			m := float64(p.N - 2)
			return float64(p.Iters)*(35*m*m+8*m+4) + 32
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		n := uint32(p.N)
		img := uint32(dataBase)
		ker := img + 4*n*n
		out := ker + 4*16 // kernel padded to 16 words
		// Tap loads: kernel rows u=0..2 into $f20..$f28.
		taps := ""
		for u := 0; u < 3; u++ {
			for v := 0; v < 3; v++ {
				taps += fmt.Sprintf("\tl.s $f%d, %d($s1)\n", 20+3*u+v, 4*(3*u+v))
			}
		}
		// Unrolled accumulation: acc += img[i+u][j+v] * k[u][v]. The row
		// pointers for i, i+1, i+2 live in $t4, $t5, $t6.
		body := ""
		for u := 0; u < 3; u++ {
			for v := 0; v < 3; v++ {
				body += fmt.Sprintf("\tl.s $f1, %d($t%d)\n", 4*v, 4+u)
				body += fmt.Sprintf("\tmul.s $f2, $f1, $f%d\n", 20+3*u+v)
				body += "\tadd.s $f0, $f0, $f2\n"
			}
		}
		return fmt.Sprintf(`
# conv2d: %dx%d image, 3x3 kernel, %d repetitions
	li $s0, %d          # image
	li $s1, %d          # kernel
	li $s2, %d          # output
	li $s3, %d          # N
	sll $s4, $s3, 2     # image row stride
	addiu $s6, $s3, -2  # output dim
	li $s7, %d          # repetitions
%s
rep:
	move $s5, $s2       # output write pointer
	li $t0, 0           # i
irow:
	mul  $t1, $t0, $s4
	addu $t4, $s0, $t1  # &img[i][0]
	addu $t5, $t4, $s4  # &img[i+1][0]
	addu $t6, $t5, $s4  # &img[i+2][0]
	li $t1, 0           # j
jcol:
	mtc1 $zero, $f0
%s	s.s  $f0, 0($s5)
	addiu $s5, $s5, 4
	addiu $t4, $t4, 4
	addiu $t5, $t5, 4
	addiu $t6, $t6, 4
	addiu $t1, $t1, 1
	bne $t1, $s6, jcol
	addiu $t0, $t0, 1
	bne $t0, $s6, irow
	addiu $s7, $s7, -1
	bgtz $s7, rep
`+exitSeq, p.N, p.N, p.Iters, img, ker, out, p.N, p.Iters, taps, body)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		img, ker := conv2dInputs(p.N)
		if err := m.StoreFloats(dataBase, img); err != nil {
			return err
		}
		return m.StoreFloats(dataBase+4*n*n, ker)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		want := conv2dGolden(p.N)
		return compareFloats(m, dataBase+4*n*n+4*16, want, "conv2d out")
	}
	return w
}

func conv2dInputs(n int) (img, ker []float32) {
	rng := newLCG(0x99)
	img = make([]float32, n*n)
	for i := range img {
		img[i] = rng.nextFloat() - 0.5
	}
	// A mild sharpening kernel, padded to 16 words for alignment.
	ker = make([]float32, 16)
	vals := []float32{0, -0.25, 0, -0.25, 2, -0.25, 0, -0.25, 0}
	copy(ker, vals)
	return img, ker
}

// conv2dGolden mirrors the kernel's float32 accumulation order: taps in
// row-major order, acc += img*k per tap.
func conv2dGolden(n int) []float32 {
	img, ker := conv2dInputs(n)
	outDim := n - 2
	out := make([]float32, outDim*outDim)
	for i := 0; i < outDim; i++ {
		for j := 0; j < outDim; j++ {
			var acc float32
			for u := 0; u < 3; u++ {
				for v := 0; v < 3; v++ {
					acc += img[(i+u)*n+(j+v)] * ker[3*u+v]
				}
			}
			out[i*outDim+j] = acc
		}
	}
	return out
}
