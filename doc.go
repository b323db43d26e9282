// Package imtrans reproduces "Power Efficiency through
// Application-Specific Instruction Memory Transformations" (Petrov &
// Orailoglu, DATE 2003): a reprogrammable low-power encoding for the
// instruction-memory data bus of embedded processors.
//
// The library spans the whole experimental stack of the paper:
//
//   - the theory of power-efficient block codes over two-input functional
//     transformations (CodeTable, TransitionTable, MinimalTransformationSet,
//     EncodeBitStream, RandomStreamExperiment);
//   - an MR32 embedded processor substrate — a MIPS-I-subset ISA, a two-pass
//     assembler and a functional simulator (Assemble, NewMachine, Run);
//   - the application pipeline: profile a program (ProfileProgram), select
//     hot basic blocks under a Transformation Table budget, encode the
//     instruction image and measure dynamic bus transitions with the
//     fetch-side decoder in the loop (Measure, MeasureProgram);
//   - the paper's six DSP/numerical benchmarks with golden references
//     (Benchmarks), a Bus-Invert comparator and an energy model.
//
// A minimal session:
//
//	prog, _ := imtrans.Assemble(src)
//	res, _ := imtrans.MeasureProgram(prog, nil, imtrans.Config{BlockSize: 5})
//	fmt.Printf("%.1f%% fewer bus transitions\n", res[0].ReductionPercent)
package imtrans
