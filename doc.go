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
//     fetch-side decoder in the loop, from one captured run per program
//     (Measure, ReplayMeasure); MeasureProgram is the two-run reference
//     the tests compare them with;
//   - the paper's six DSP/numerical benchmarks with golden references
//     (Benchmarks), checked on the run every Benchmark measurement reads,
//     a Bus-Invert comparator and an energy model.
//
// A minimal session:
//
//	prog, _ := imtrans.Assemble(src)
//	res, _ := imtrans.ReplayMeasure(prog, nil, imtrans.Config{BlockSize: 5})
//	fmt.Printf("%.1f%% fewer bus transitions\n", res[0].ReductionPercent())
package imtrans
