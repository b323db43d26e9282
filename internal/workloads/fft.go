package workloads

import (
	"fmt"
	"math"

	"imtrans/internal/mem"
)

// FFT is an in-place iterative radix-2 decimation-in-time FFT over
// float32 complex samples (separate real/imaginary arrays), the paper's
// fft benchmark (block size 256). The bit-reversal permutation table and
// the per-stage twiddle factors are precomputed by the host into data
// memory — the embedded equivalent of a ROM table.
func FFT() *Workload {
	w := &Workload{
		Name:        "fft",
		Description: "radix-2 iterative FFT, precomputed twiddle ROM",
		Defaults:    Params{N: 256, Iters: 1},
		TestParams:  Params{N: 16, Iters: 1},
		MinN:        2,
		Pow2:        true,
		// n/2 36-instruction butterflies per stage, log2 n stages, after a
		// bit-reversal pass of 7 instructions per sample and 12 per swap.
		Insts: func(p Params) float64 {
			n := float64(p.N)
			stages := math.Log2(n)
			return 18*n*stages + 16*n + 7*stages + 32
		},
	}
	w.Source = func(p Params) string {
		p = w.Fill(p)
		n := uint32(p.N)
		re := uint32(dataBase)
		im := re + 4*n
		rev := im + 4*n
		twr := rev + 4*n
		twi := twr + 4*(n-1)
		return fmt.Sprintf(`
# fft: N=%d radix-2 DIT, separate re/im arrays, host-built rev & twiddle ROMs
	li $s0, %d          # re base
	li $s1, %d          # im base
	li $s2, %d          # rev table
	li $s3, %d          # N
	li $s7, %d          # twiddle re base
	li $t8, %d          # twiddle im base

# ---- bit-reversal permutation: for i: j=rev[i]; if i<j swap ----
	li $t0, 0
brloop:
	sll  $t1, $t0, 2
	addu $t2, $s2, $t1
	lw   $t3, 0($t2)    # j = rev[i]
	slt  $t4, $t0, $t3
	beq  $t4, $zero, brskip
	sll  $t5, $t3, 2
	addu $t6, $s0, $t1
	addu $t7, $s0, $t5
	l.s  $f0, 0($t6)
	l.s  $f1, 0($t7)
	s.s  $f1, 0($t6)
	s.s  $f0, 0($t7)
	addu $t6, $s1, $t1
	addu $t7, $s1, $t5
	l.s  $f0, 0($t6)
	l.s  $f1, 0($t7)
	s.s  $f1, 0($t6)
	s.s  $f0, 0($t7)
brskip:
	addiu $t0, $t0, 1
	bne $t0, $s3, brloop

# ---- butterfly stages: m = 2,4,...,N ----
	li $s4, 2           # m
stage:
	srl $s5, $s4, 1     # half = m/2
	# twiddle offset for this stage = (half - 1) words
	addiu $t9, $s5, -1
	sll  $t9, $t9, 2    # byte offset into twiddle ROMs
	li $t0, 0           # k (group start)
group:
	li $t1, 0           # j within group
bfly:
	# load twiddle w = (f4, f5)
	sll  $t2, $t1, 2
	addu $t3, $t2, $t9
	addu $t4, $s7, $t3
	l.s  $f4, 0($t4)    # wr
	addu $t4, $t8, $t3
	l.s  $f5, 0($t4)    # wi
	# indices: lo = k+j, hi = lo+half
	addu $t5, $t0, $t1
	sll  $t5, $t5, 2    # lo byte offset
	sll  $t6, $s5, 2
	addu $t6, $t5, $t6  # hi byte offset
	addu $t7, $s0, $t6
	l.s  $f0, 0($t7)    # re[hi]
	addu $t7, $s1, $t6
	l.s  $f1, 0($t7)    # im[hi]
	# t = w * x[hi]
	mul.s $f2, $f4, $f0
	mul.s $f3, $f5, $f1
	sub.s $f2, $f2, $f3 # tre = wr*re - wi*im
	mul.s $f3, $f4, $f1
	mul.s $f6, $f5, $f0
	add.s $f3, $f3, $f6 # tim = wr*im + wi*re
	addu $t7, $s0, $t5
	l.s  $f0, 0($t7)    # re[lo]
	addu $t4, $s1, $t5
	l.s  $f1, 0($t4)    # im[lo]
	sub.s $f6, $f0, $f2
	sub.s $f7, $f1, $f3
	add.s $f0, $f0, $f2
	add.s $f1, $f1, $f3
	s.s  $f0, 0($t7)    # re[lo] += tre
	s.s  $f1, 0($t4)    # im[lo] += tim
	addu $t7, $s0, $t6
	s.s  $f6, 0($t7)    # re[hi] = re[lo] - tre
	addu $t7, $s1, $t6
	s.s  $f7, 0($t7)
	addiu $t1, $t1, 1
	bne  $t1, $s5, bfly
	addu $t0, $t0, $s4
	bne  $t0, $s3, group
	sll $s4, $s4, 1
	ble $s4, $s3, stage
`+exitSeq, p.N, re, im, rev, p.N, twr, twi)
	}
	w.Setup = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		re, im := fftInput(p.N)
		if err := m.StoreFloats(dataBase, re); err != nil {
			return err
		}
		if err := m.StoreFloats(dataBase+4*n, im); err != nil {
			return err
		}
		rev := bitrevTable(p.N)
		if err := m.StoreWords(dataBase+8*n, rev); err != nil {
			return err
		}
		twr, twi := twiddles(p.N)
		if err := m.StoreFloats(dataBase+12*n, twr); err != nil {
			return err
		}
		return m.StoreFloats(dataBase+12*n+4*(n-1), twi)
	}
	w.Check = func(m *mem.Memory, p Params) error {
		p = w.Fill(p)
		n := uint32(p.N)
		re, im := fftGolden(p.N)
		if err := compareFloats(m, dataBase, re, "fft re"); err != nil {
			return err
		}
		return compareFloats(m, dataBase+4*n, im, "fft im")
	}
	return w
}

func fftInput(n int) (re, im []float32) {
	rng := newLCG(0x44)
	re = make([]float32, n)
	im = make([]float32, n)
	for i := range re {
		re[i] = rng.nextFloat() - 0.5
		im[i] = rng.nextFloat() - 0.5
	}
	return re, im
}

// bitrevTable returns rev[i] = bit-reversal of i within log2(n) bits.
func bitrevTable(n int) []uint32 {
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	rev := make([]uint32, n)
	for i := 0; i < n; i++ {
		r := uint32(0)
		for b := 0; b < bits; b++ {
			if i&(1<<uint(b)) != 0 {
				r |= 1 << uint(bits-1-b)
			}
		}
		rev[i] = r
	}
	return rev
}

// twiddles lays the per-stage twiddle factors out flat: stage with half
// butterflies stores its `half` factors at word offset half-1 (so stage 1
// is at 0, stage 2 at 1, stage 3 at 3, ...), total n-1 entries.
func twiddles(n int) (twr, twi []float32) {
	twr = make([]float32, n-1)
	twi = make([]float32, n-1)
	for m := 2; m <= n; m <<= 1 {
		half := m / 2
		off := half - 1
		for j := 0; j < half; j++ {
			ang := -2 * math.Pi * float64(j) / float64(m)
			twr[off+j] = float32(math.Cos(ang))
			twi[off+j] = float32(math.Sin(ang))
		}
	}
	return twr, twi
}

// fftGolden performs the identical float32 butterfly sequence as the
// kernel, including the bit-reversal swap pattern and twiddle values.
func fftGolden(n int) (re, im []float32) {
	re, im = fftInput(n)
	rev := bitrevTable(n)
	for i := 0; i < n; i++ {
		j := int(rev[i])
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	twr, twi := twiddles(n)
	for m := 2; m <= n; m <<= 1 {
		half := m / 2
		off := half - 1
		for k := 0; k < n; k += m {
			for j := 0; j < half; j++ {
				wr, wi := twr[off+j], twi[off+j]
				lo, hi := k+j, k+j+half
				tre := wr*re[hi] - wi*im[hi]
				tim := wr*im[hi] + wi*re[hi]
				re[hi] = re[lo] - tre
				im[hi] = im[lo] - tim
				re[lo] = re[lo] + tre
				im[lo] = im[lo] + tim
			}
		}
	}
	return re, im
}
