package imtrans

// Benchmark harness: one benchmark per table/figure of the paper plus the
// ablations from DESIGN.md. Figure benchmarks regenerate their artifact
// each iteration and report the headline numbers as custom metrics, so
// `go test -bench .` doubles as a compact reproduction run (benchmarks use
// reduced problem sizes; `go run ./cmd/reproduce` runs paper scale).

import (
	"fmt"
	"testing"
)

// BenchmarkFigure2Table regenerates the 3-bit optimal code table over the
// full 16-function space.
func BenchmarkFigure2Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := CodeTable(3, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkFigure3Table regenerates the TTN/RTN theoretical reductions for
// block sizes 2..7 and reports the k=5 improvement (the paper's preferred
// design point).
func BenchmarkFigure3Table(b *testing.B) {
	var imp5 float64
	for i := 0; i < b.N; i++ {
		rows, err := TransitionTable(7, false)
		if err != nil {
			b.Fatal(err)
		}
		imp5 = rows[3].ImprovementPercent
	}
	b.ReportMetric(imp5, "impr_k5_%")
}

// BenchmarkFigure4Table regenerates the 5-bit table restricted to the
// canonical 8 functions.
func BenchmarkFigure4Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := CodeTable(5, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 32 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkSection52SubsetSearch runs the exhaustive minimal-subset search
// of Section 5.2 and reports the minimal sufficient set size (the paper
// says 8; the true minimum is 6).
func BenchmarkSection52SubsetSearch(b *testing.B) {
	var size int
	for i := 0; i < b.N; i++ {
		ms, err := MinimalTransformationSet()
		if err != nil {
			b.Fatal(err)
		}
		size = ms.Size
	}
	b.ReportMetric(float64(size), "min_set_size")
}

// BenchmarkSection6RandomStreams encodes random 1000-bit streams at k=5
// (Section 6) and reports the mean reduction, expected to sit at 50%.
func BenchmarkSection6RandomStreams(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := RandomStreamExperiment(50, 1000, 5, false, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		mean = r.MeanPercent
	}
	b.ReportMetric(mean, "mean_reduction_%")
}

// figure6Scales are the reduced problem sizes used by the Figure 6/7
// benchmarks (paper scale takes minutes; see cmd/reproduce).
var figure6Scales = map[string][2]int{
	"mmul": {24, 0},
	"sor":  {32, 2},
	"ej":   {24, 4},
	"fft":  {64, 0},
	"tri":  {32, 10},
	"lu":   {24, 0},
}

func figure6Bench(b *testing.B, name string) {
	bench, err := BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	s := figure6Scales[name]
	bench = bench.WithScale(s[0], s[1])
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}
	var ms []Measurement
	for i := 0; i < b.N; i++ {
		ms, err = bench.Measure(cfgs...)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		b.ReportMetric(m.Percent, fmt.Sprintf("red_k%d_%%", m.Config.BlockSize))
	}
	b.ReportMetric(float64(ms[0].Baseline), "baseline_transitions")
}

// BenchmarkFigure6 regenerates one column of Figure 6 per sub-benchmark:
// the dynamic transition reductions of each kernel at block sizes 4..7
// with a 16-entry TT.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range []string{"mmul", "sor", "ej", "fft", "tri", "lu"} {
		b.Run(name, func(b *testing.B) { figure6Bench(b, name) })
	}
}

// BenchmarkFigure7MeanReduction aggregates Figure 7: the mean reduction
// across all six kernels at the paper's preferred block sizes.
func BenchmarkFigure7MeanReduction(b *testing.B) {
	var mean4, mean5 float64
	for i := 0; i < b.N; i++ {
		var s4, s5 float64
		for name, scale := range figure6Scales {
			bench, err := BenchmarkByName(name)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := bench.WithScale(scale[0], scale[1]).Measure(
				Config{BlockSize: 4}, Config{BlockSize: 5})
			if err != nil {
				b.Fatal(err)
			}
			s4 += ms[0].Percent
			s5 += ms[1].Percent
		}
		mean4, mean5 = s4/6, s5/6
	}
	b.ReportMetric(mean4, "mean_red_k4_%")
	b.ReportMetric(mean5, "mean_red_k5_%")
}

// BenchmarkAblationGreedyVsExact compares the paper's greedy chaining with
// the exact DP on one kernel.
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	bench, err := BenchmarkByName("mmul")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(24, 0)
	var g, e float64
	for i := 0; i < b.N; i++ {
		ms, err := bench.Measure(Config{BlockSize: 5}, Config{BlockSize: 5, Exact: true})
		if err != nil {
			b.Fatal(err)
		}
		g, e = ms[0].Percent, ms[1].Percent
	}
	b.ReportMetric(g, "greedy_%")
	b.ReportMetric(e, "exact_%")
}

// BenchmarkAblationFunctionSets compares the canonical 8 transformations
// against the full 16-function space (Section 5.2's claim: no gain).
func BenchmarkAblationFunctionSets(b *testing.B) {
	bench, err := BenchmarkByName("sor")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(32, 2)
	var f8, f16 float64
	for i := 0; i < b.N; i++ {
		ms, err := bench.Measure(Config{BlockSize: 5}, Config{BlockSize: 5, AllFunctions: true})
		if err != nil {
			b.Fatal(err)
		}
		f8, f16 = ms[0].Percent, ms[1].Percent
	}
	b.ReportMetric(f8, "funcs8_%")
	b.ReportMetric(f16, "funcs16_%")
}

// BenchmarkAblationTTSize sweeps the Transformation Table capacity,
// quantifying the paper's area/efficacy trade-off.
func BenchmarkAblationTTSize(b *testing.B) {
	bench, err := BenchmarkByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(24, 0)
	var cfgs []Config
	for _, tt := range []int{2, 4, 8, 16, 32} {
		cfgs = append(cfgs, Config{BlockSize: 5, TTEntries: tt, BBITEntries: 32})
	}
	var ms []Measurement
	for i := 0; i < b.N; i++ {
		ms, err = bench.Measure(cfgs...)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		b.ReportMetric(m.Percent, fmt.Sprintf("red_tt%d_%%", m.Config.TTEntries))
	}
}

// BenchmarkAblationSelection compares heat-greedy TT allocation with the
// exact knapsack under a tight two-entry budget.
func BenchmarkAblationSelection(b *testing.B) {
	bench, err := BenchmarkByName("ej")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(24, 4)
	var g, k float64
	for i := 0; i < b.N; i++ {
		ms, err := bench.Measure(
			Config{BlockSize: 5, TTEntries: 2},
			Config{BlockSize: 5, TTEntries: 2, Knapsack: true},
		)
		if err != nil {
			b.Fatal(err)
		}
		g, k = ms[0].Percent, ms[1].Percent
	}
	b.ReportMetric(g, "greedy_%")
	b.ReportMetric(k, "knapsack_%")
}

// BenchmarkBaselineBusInvert reports the related-work comparator on the
// same fetch stream as the k=5 measurement.
func BenchmarkBaselineBusInvert(b *testing.B) {
	bench, err := BenchmarkByName("ej")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(24, 4)
	var app, inv float64
	for i := 0; i < b.N; i++ {
		ms, err := bench.Measure(Config{BlockSize: 5})
		if err != nil {
			b.Fatal(err)
		}
		app, inv = ms[0].Percent, ms[0].BusInvertPercent
	}
	b.ReportMetric(app, "app_specific_%")
	b.ReportMetric(inv, "bus_invert_%")
}

// BenchmarkExtensionScheduling measures the compiler-side ablation: the
// kernels' dynamic reduction from transition-aware scheduling alone.
func BenchmarkExtensionScheduling(b *testing.B) {
	bench, err := BenchmarkByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(64, 0)
	var schedOnly float64
	for i := 0; i < b.N; i++ {
		p, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		p2, _, err := RescheduleProgram(p)
		if err != nil {
			b.Fatal(err)
		}
		base, err := bench.Measure()
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.MeasureModified(p2)
		if err != nil {
			b.Fatal(err)
		}
		schedOnly = 100 * (1 - float64(res[0].Baseline)/float64(base[0].Baseline))
	}
	b.ReportMetric(schedOnly, "sched_only_%")
}

// BenchmarkExtensionPhased measures the Section 7.1 per-hot-spot table
// reprogramming gain over a single deployment on a two-loop firmware.
func BenchmarkExtensionPhased(b *testing.B) {
	p, err := Assemble(sequentialLoopsSrc)
	if err != nil {
		b.Fatal(err)
	}
	var phasedPct, singlePct float64
	for i := 0; i < b.N; i++ {
		pm, err := MeasurePhased(p, nil, Config{BlockSize: 5, TTEntries: 2})
		if err != nil {
			b.Fatal(err)
		}
		phasedPct, singlePct = pm.Percent, pm.SinglePercent
	}
	b.ReportMetric(phasedPct, "phased_%")
	b.ReportMetric(singlePct, "single_%")
}

// BenchmarkExtensionHistory2 regenerates the h=2 future-work table.
func BenchmarkExtensionHistory2(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := HistoryDepthComparison(7)
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[len(rows)-1].ExtraPercent
	}
	b.ReportMetric(gain, "h2_gain_k7_pts")
}

// BenchmarkRTLGeneration measures Verilog emission for a deployed decoder.
func BenchmarkRTLGeneration(b *testing.B) {
	p, err := Assemble(testLoop)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	d, err := BuildDeployment(p, res.Profile, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Verilog("dec"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBitStream measures raw encoder throughput on a 4096-bit
// stream (bits per second in the bytes metric).
func BenchmarkEncodeBitStream(b *testing.B) {
	stream := make([]uint8, 4096)
	lfsr := uint32(0xace1)
	for i := range stream {
		lfsr = lfsr>>1 ^ (-(lfsr & 1) & 0xB400)
		stream[i] = uint8(lfsr) & 1
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBitStream(stream, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the functional simulator's throughput in
// instructions per second (reported via bytes/op: 1 byte = 1 instruction).
func BenchmarkSimulator(b *testing.B) {
	bench, err := BenchmarkByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(256, 0)
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := bench.Run()
		if err != nil {
			b.Fatal(err)
		}
		instr = res.Instructions
	}
	b.ReportMetric(float64(instr), "instructions")
}

// BenchmarkMeasurePipeline times the full profile+encode+measure pipeline
// end to end on a small kernel.
func BenchmarkMeasurePipeline(b *testing.B) {
	p, err := Assemble(testLoop)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := MeasureProgram(p, nil, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
