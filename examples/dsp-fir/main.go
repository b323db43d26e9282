// DSP scenario: a 16-tap FIR filter over a sample stream, the archetypal
// embedded hot loop the paper's introduction motivates. The example shows
// the whole deployment story for an application-specific processor:
//
//  1. profile the firmware to find the hot loop;
//  2. plan the encoding — the contents that would be written to the
//     Transformation Table and BBIT "by software prior to entering the
//     application hot spot";
//  3. measure the dynamic bus-transition savings.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"imtrans"
)

const taps = 16
const samples = 4096

const firSrc = `
# y[n] = sum_t h[t] * x[n-t], 16 taps
	li   $s0, 0x10010000     # h (taps)
	li   $s1, 0x10010100     # x (samples, taps-1 leading zeros)
	li   $s2, 0x10020000     # y (output)
	li   $s3, 4096           # sample count
	li   $t9, 0              # n
sample:
	mtc1 $zero, $f0          # acc
	sll  $t0, $t9, 2
	addu $t0, $s1, $t0       # &x[n] (points at newest of the window)
	move $t1, $s0            # &h[0]
	li   $t2, 16
tap:
	l.s   $f1, 0($t0)
	l.s   $f2, 0($t1)
	mul.s $f3, $f1, $f2
	add.s $f0, $f0, $f3
	addiu $t0, $t0, 4        # older sample (window laid out forward)
	addiu $t1, $t1, 4        # next tap
	addiu $t2, $t2, -1
	bgtz  $t2, tap
	sll  $t3, $t9, 2
	addu $t3, $s2, $t3
	s.s  $f0, 0($t3)         # y[n]
	addiu $t9, $t9, 1
	bne  $t9, $s3, sample
	li $v0, 10
	syscall
`

func main() {
	prog, err := imtrans.Assemble(firSrc)
	if err != nil {
		log.Fatal(err)
	}

	// Input: a low-pass filter over a two-tone signal.
	h := make([]float32, taps)
	for i := range h {
		h[i] = float32(1.0 / taps)
	}
	x := make([]float32, samples+taps)
	for i := 0; i < samples; i++ {
		x[i+taps-1] = float32(math.Sin(2*math.Pi*float64(i)/64) +
			0.25*math.Sin(2*math.Pi*float64(i)/5))
	}
	setup := func(m imtrans.Memory) error {
		if err := m.StoreFloats(imtrans.DataBase, h); err != nil {
			return err
		}
		return m.StoreFloats(imtrans.DataBase+0x100, x)
	}

	// Step 1-2: profile and plan. A bare profiling run yields the
	// per-instruction execution counts the plan is made from.
	profile, err := imtrans.ProfileProgram(context.Background(), prog, setup)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := imtrans.EncodeProgram(prog, profile, imtrans.Config{BlockSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	// Step 3: measure. One captured run, replayed against each encoded
	// image with every restored word checked; its baseline is the
	// firmware's unencoded bus.
	ms, err := imtrans.ReplayMeasure(prog, setup,
		imtrans.Config{BlockSize: 4}, imtrans.Config{BlockSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("firmware: %d instructions executed, %d bus transitions\n",
		ms[0].Instructions, ms[0].Baseline)
	fmt.Printf("encoding plan (k=5): %d basic blocks covered, %d TT entries, %.1f%% of fetches\n",
		len(rep.Plans), rep.TTEntriesUsed, rep.CoveragePercent)
	for _, p := range rep.Plans {
		fmt.Printf("  block @%#x: %d instrs, heat %d, TT[%d..%d], tail CT=%d\n",
			p.StartPC, p.Instructions, p.Heat, p.TTStart, p.TTStart+p.TTEntries-1, p.TailCT)
	}
	// The reprogrammable table contents for the hottest block — what the
	// firmware would write to the decoder's SRAM before entering the loop.
	hot := rep.Plans[0]
	fmt.Printf("\nTT image of the hot block (per entry, lines 0-7 shown):\n")
	for e, lines := range hot.Transformations {
		fmt.Printf("  entry %d: %s ...\n", hot.TTStart+e, strings.Join(lines[:8], " "))
	}

	fmt.Println()
	for _, m := range ms {
		fmt.Printf("%v: %.1f%% of bus transitions removed (bus-invert manages %.1f%%)\n",
			m.Config, m.Percent, m.BusInvertPercent)
	}
}
