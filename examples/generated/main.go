// Generated kernels: uses the kernel builder to synthesize a family of
// loops with growing body sizes, then measures how the encoding's efficacy
// depends on basic-block length — the effect behind the paper's fft
// observation ("a number of very short basic blocks ... with significant
// contribution to the bit transition numbers").
package main

import (
	"fmt"
	"log"

	"imtrans"
	"imtrans/kernel"
)

// makeKernel builds a loop whose body has the given number of ALU
// instructions, iterated enough times to dominate the fetch stream.
func makeKernel(bodySize int) (*imtrans.Program, error) {
	b := kernel.New()
	acc := b.Saved()
	aux := b.Saved()
	b.Li(acc, 0x1234)
	b.Li(aux, 0x00ff)
	b.Downto("hot", 30000, func(i kernel.Reg) {
		ops := []string{"addu", "xor", "or", "and", "subu", "nor"}
		for n := 0; n < bodySize; n++ {
			b.Inst(ops[n%len(ops)], acc, acc, aux)
		}
	})
	b.Exit()
	src, err := b.Build()
	if err != nil {
		return nil, err
	}
	return imtrans.Assemble(src)
}

func main() {
	fmt.Println("encoding efficacy vs loop-body length (k=5, 16-entry TT)")
	fmt.Println("body instrs   reduction   TT entries")
	for _, body := range []int{2, 4, 8, 16, 32, 48} {
		prog, err := makeKernel(body)
		if err != nil {
			log.Fatal(err)
		}
		ms, err := imtrans.ReplayMeasure(prog, nil, imtrans.Config{BlockSize: 5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%11d   %8.1f%%   %10d\n", body+2, ms[0].Percent, ms[0].TTEntriesUsed)
	}
	fmt.Println()
	fmt.Println("longer straight-line bodies amortise the unencoded first word and")
	fmt.Println("the block-boundary constraints; very short bodies leave little for")
	fmt.Println("the transformations to compress — the paper's fft effect.")
}
