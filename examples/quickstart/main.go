// Quickstart: the paper's technique on its two levels.
//
// First, the raw bit-stream view (Section 5): encode one vertical bit
// stream with chained overlapping blocks and watch the transitions drop,
// then restore it with the per-block transformations.
//
// Second, the program view (Sections 6-8): assemble a small loop kernel,
// profile it, and measure how many instruction-bus transitions the
// power encoding removes with the fetch-side decoder in the loop.
package main

import (
	"fmt"
	"log"
	"strings"

	"imtrans"
)

func main() {
	bitStreamDemo()
	programDemo()
}

func bitStreamDemo() {
	fmt.Println("--- bit-stream view ---")
	// The alternating stream is the paper's motivating example: it has
	// maximal transitions, yet a history function regenerates it from an
	// all-zero code word.
	stream := []uint8{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}
	se, err := imtrans.EncodeBitStream(stream, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original: %s   (%d transitions)\n", bits(stream), se.Before)
	fmt.Printf("encoded:  %s   (%d transitions, %.0f%% fewer)\n", bits(se.Code), se.After, se.ReductionPc)
	fmt.Printf("per-block transformations: %s\n", strings.Join(se.Taus, ", "))

	restored, err := imtrans.DecodeBitStream(se.Code, 5, se.Taus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: %s\n\n", bits(restored))
}

func bits(s []uint8) string {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = '0' + v
	}
	return string(b)
}

const kernel = `
# dot product of two 64-element float vectors, looped 2000 times
	li   $s0, 0x10010000     # x
	li   $s1, 0x10010100     # y
	li   $s7, 2000           # repetitions
rep:
	mtc1 $zero, $f0          # acc
	move $t0, $s0
	move $t1, $s1
	li   $t2, 64
dot:
	l.s   $f1, 0($t0)
	l.s   $f2, 0($t1)
	mul.s $f3, $f1, $f2
	add.s $f0, $f0, $f3
	addiu $t0, $t0, 4
	addiu $t1, $t1, 4
	addiu $t2, $t2, -1
	bgtz  $t2, dot
	s.s  $f0, 0x200($s0)     # result
	addiu $s7, $s7, -1
	bgtz $s7, rep
	li $v0, 10
	syscall
`

func programDemo() {
	fmt.Println("--- program view ---")
	prog, err := imtrans.Assemble(kernel)
	if err != nil {
		log.Fatal(err)
	}
	setup := func(m imtrans.Memory) error {
		x := make([]float32, 64)
		y := make([]float32, 64)
		for i := range x {
			x[i] = float32(i) * 0.25
			y[i] = float32(64-i) * 0.5
		}
		if err := m.StoreFloats(imtrans.DataBase, x); err != nil {
			return err
		}
		return m.StoreFloats(imtrans.DataBase+0x100, y)
	}
	// One profiling run, its fetch stream replayed against each encoded
	// image with every restored word checked.
	ms, err := imtrans.ReplayMeasure(prog, setup,
		imtrans.Config{BlockSize: 4},
		imtrans.Config{BlockSize: 5},
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range ms {
		fmt.Printf("%v: %d -> %d bus transitions (%.1f%% saved), decoder storage %d bits\n",
			m.Config, m.Baseline, m.Encoded, m.Percent, m.OverheadBits)
	}
}
