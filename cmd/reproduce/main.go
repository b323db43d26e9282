// Command reproduce regenerates every table and figure of Petrov &
// Orailoglu, "Power Efficiency through Application-Specific Instruction
// Memory Transformations" (DATE 2003), plus the ablations documented in
// DESIGN.md.
//
// Usage:
//
//	reproduce                  # everything at paper scale
//	reproduce -what fig3       # one artifact: fig2 fig3 fig4 fig6 fig7
//	reproduce -what claims     # Section 5.2 subset search + Section 6 randoms
//	reproduce -what ablations  # greedy-vs-exact, 8-vs-16 funcs, TT sweep, bus-invert
//	reproduce -scale small     # reduced problem sizes (seconds instead of minutes)
//	reproduce -small           # shorthand for -scale small
//	reproduce -j 4             # bound the measurement worker pools
//	reproduce -checkpoint f6.ckpt -what fig6   # journal the Figure 6 sweep; rerun to resume
//	reproduce -timeout 30s     # bound the whole run; interrupted sweeps keep their journal
//
// Ctrl-C (SIGINT) or SIGTERM cancels the run cooperatively: in-flight
// sweep cells stop within one task granule, and with -checkpoint set the
// completed cells are already journalled, so rerunning the same command
// resumes where the interrupted run stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"imtrans"
	"imtrans/internal/prof"
	"imtrans/internal/stats"
)

// jobs is the sweep/encode parallelism bound, from -j (0 = GOMAXPROCS).
var jobs int

// rootCtx is cancelled by SIGINT/SIGTERM (and -timeout); the sweep-based
// artifacts poll it cooperatively.
var rootCtx = context.Background()

// checkpointPath journals the Figure 6 sweep grid when non-empty.
var checkpointPath string

func main() {
	what := flag.String("what", "all", "artifact to regenerate: fig2|fig3|fig4|fig6|fig7|claims|ablations|history|cache|addrbus|extras|phased|sched|lines|all")
	scale := flag.String("scale", "paper", "problem sizes: paper|small")
	smallFlag := flag.Bool("small", false, "shorthand for -scale small")
	flag.IntVar(&jobs, "j", 0, "measurement parallelism (0 = GOMAXPROCS)")
	flag.StringVar(&checkpointPath, "checkpoint", "", "journal the Figure 6 sweep here; an interrupted run resumes from it")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this long (0 = no deadline)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	flag.Parse()
	if *scale != "paper" && *scale != "small" {
		fmt.Fprintf(os.Stderr, "reproduce: unknown scale %q\n", *scale)
		os.Exit(1)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}

	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	imtrans.SetParallelism(jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rootCtx = ctx

	small := *scale == "small" || *smallFlag
	switch *what {
	case "fig2":
		err = figure2()
	case "fig3":
		err = figure3()
	case "fig4":
		err = figure4()
	case "fig6", "figure6":
		err = figure6(small)
	case "fig7", "figure7":
		err = figure7(small)
	case "claims":
		err = claims()
	case "ablations":
		err = ablations(small)
	case "history":
		err = history()
	case "cache":
		err = cacheStudy(small)
	case "addrbus":
		err = addrBus(small)
	case "extras":
		err = extras(small)
	case "phased":
		err = phased()
	case "sched":
		err = schedStudy(small)
	case "lines":
		err = perLine(small)
	case "all":
		for _, f := range []func() error{figure2, figure3, figure4, claims, history} {
			if err = f(); err != nil {
				break
			}
		}
		if err == nil {
			err = figure6(small)
		}
		if err == nil {
			err = figure7(small)
		}
		if err == nil {
			err = ablations(small)
		}
		if err == nil {
			err = cacheStudy(small)
		}
		if err == nil {
			err = addrBus(small)
		}
		if err == nil {
			err = extras(small)
		}
		if err == nil {
			err = phased()
		}
		if err == nil {
			err = schedStudy(small)
		}
		if err == nil {
			err = perLine(small)
		}
	default:
		err = fmt.Errorf("unknown artifact %q", *what)
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func figure2() error {
	fmt.Println("== Figure 2: power efficient transformations for three bit blocks ==")
	rows, err := imtrans.CodeTable(3, false)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow("X", "X~", "tau", "T_x", "T_x~")
	for _, r := range rows {
		tb.AddRowf(r.Word, r.CodeWord, r.Tau, r.Transitions, r.CodeTransitions)
	}
	fmt.Println(tb.String())
	return nil
}

func figure3() error {
	fmt.Println("== Figure 3: transition improvements for various block sizes ==")
	rows, err := imtrans.TransitionTable(7, false)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow("Size", "TTN", "RTN", "Impr(%)")
	for _, r := range rows {
		tb.AddRowf(r.K, r.TTN, r.RTN, fmt.Sprintf("%.1f", r.ImprovementPercent))
	}
	fmt.Println(tb.String())
	fmt.Println("note: the paper prints TTN=320/RTN=180 at size 6 (double the exact")
	fmt.Println("count; same ratio) and RTN=234 at size 7 (below the exhaustive")
	fmt.Println("optimum 236); see EXPERIMENTS.md.")
	fmt.Println()
	return nil
}

func figure4() error {
	fmt.Println("== Figure 4: power efficient transformations for five bit blocks ==")
	fmt.Println("(8-function restriction; first half shown, as in the paper —")
	fmt.Println("the second half follows by the inversion symmetry)")
	rows, err := imtrans.CodeTable(5, true)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow("X", "X~", "tau", "T_x", "T_x~")
	for _, r := range rows[:16] {
		tb.AddRowf(r.Word, r.CodeWord, r.Tau, r.Transitions, r.CodeTransitions)
	}
	fmt.Println(tb.String())
	return nil
}

// figure6Memo caches the Figure 6 measurements so that a combined run
// (fig6 + fig7) simulates each benchmark once.
var figure6Memo = map[bool]struct {
	names   []string
	results map[string][]imtrans.Measurement
}{}

// figure6Data measures all benchmarks at block sizes 4..7 with a 16-entry
// TT, the paper's Figure 6 experiment. The whole grid goes through one
// supervised SweepMeasureCtx call: each kernel is simulated once for its
// cached fetch trace and the 24 encode+replay evaluations run -j wide,
// journalled to -checkpoint and cancellable by SIGINT/-timeout.
func figure6Data(small bool) ([]string, map[string][]imtrans.Measurement, error) {
	if memo, ok := figure6Memo[small]; ok {
		return memo.names, memo.results, nil
	}
	cfgs := []imtrans.Config{
		{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7},
	}
	benches := imtrans.Benchmarks()
	var names []string
	for i, b := range benches {
		if small {
			benches[i] = smallScale(b)
		}
		names = append(names, b.Name)
	}
	fmt.Fprintf(os.Stderr, "  measuring %s (%d configs, -j %d)...\n",
		strings.Join(names, " "), len(cfgs), jobs)
	res, err := imtrans.SweepMeasureCtx(rootCtx, benches, cfgs, imtrans.SweepOptions{
		Parallelism: jobs,
		Checkpoint:  checkpointPath,
	})
	if err != nil {
		if res != nil && checkpointPath != "" {
			fmt.Fprintf(os.Stderr, "  interrupted: %d cells journalled in %s; rerun to resume\n",
				res.Restored+res.Completed, checkpointPath)
		}
		return nil, nil, err
	}
	if res.Restored > 0 {
		fmt.Fprintf(os.Stderr, "  resumed %d cells from %s, measured %d\n",
			res.Restored, checkpointPath, res.Completed)
	}
	if err := res.Err(); err != nil {
		return nil, nil, err
	}
	grid := res.Measurements
	results := make(map[string][]imtrans.Measurement)
	for i, n := range names {
		results[n] = grid[i]
	}
	figure6Memo[small] = struct {
		names   []string
		results map[string][]imtrans.Measurement
	}{names, results}
	return names, results, nil
}

func smallScale(b imtrans.Benchmark) imtrans.Benchmark {
	switch b.Name {
	case "mmul":
		return b.WithScale(24, 0)
	case "sor":
		return b.WithScale(32, 2)
	case "ej":
		return b.WithScale(24, 4)
	case "fft":
		return b.WithScale(64, 0)
	case "tri":
		return b.WithScale(32, 10)
	case "lu":
		return b.WithScale(24, 0)
	}
	return b
}

func figure6(small bool) error {
	fmt.Println("== Figure 6: transition reduction results ==")
	names, results, err := figure6Data(small)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow(append([]string{""}, names...)...)
	row := []string{"#TR"}
	for _, n := range names {
		row = append(row, stats.Millions(results[n][0].Baseline))
	}
	tb.AddRow(row...)
	for ki, k := range []int{4, 5, 6, 7} {
		row = []string{fmt.Sprintf("#%d-block", k)}
		for _, n := range names {
			row = append(row, stats.Millions(results[n][ki].Encoded))
		}
		tb.AddRow(row...)
		row = []string{"Reduction(%)"}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.1f", results[n][ki].Percent))
		}
		tb.AddRow(row...)
	}
	fmt.Println(tb.String())
	fmt.Println("(#TR and #k-block rows are bus transitions in millions)")
	fmt.Println()
	return nil
}

func figure7(small bool) error {
	fmt.Println("== Figure 7: percentage reduction comparison ==")
	names, results, err := figure6Data(small)
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Printf("%-5s", n)
		for ki, k := range []int{4, 5, 6, 7} {
			pct := results[n][ki].Percent
			bar := strings.Repeat("#", int(pct/2))
			fmt.Printf("\n  k=%d %5.1f%% |%s", k, pct, bar)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func claims() error {
	fmt.Println("== Section 5.2: minimal sufficient transformation subset ==")
	ms, err := imtrans.MinimalTransformationSet()
	if err != nil {
		return err
	}
	fmt.Printf("smallest subset matching the 16-function optimum at k=2..7: %d functions\n", ms.Size)
	for _, s := range ms.Subsets {
		fmt.Printf("  {%s}\n", strings.Join(s, ", "))
	}
	fmt.Println("paper claims a unique sufficient subset of 8; the canonical 8 is")
	fmt.Println("sufficient (verified), but 6 functions already reach the optimum.")
	fmt.Println()

	fmt.Println("== Section 6: random 1000-bit streams, k=5, 1-bit overlap ==")
	for _, exact := range []bool{false, true} {
		r, err := imtrans.RandomStreamExperiment(200, 1000, 5, exact, 2003)
		if err != nil {
			return err
		}
		mode := "greedy"
		if exact {
			mode = "exact-DP"
		}
		fmt.Printf("%-8s expected %.1f%%  mean %.2f%%  min %.2f%%  max %.2f%%\n",
			mode, r.ExpectedPercent, r.MeanPercent, r.MinPercent, r.MaxPercent)
	}
	fmt.Println()
	return nil
}

func history() error {
	fmt.Println("== Extension: history depth 2 (paper Section 5.1 future work) ==")
	rows, err := imtrans.HistoryDepthComparison(8)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow("Size", "h=1 Impr(%)", "h=2 Impr(%)", "gain(pts)", "h=2 funcs used")
	for _, r := range rows {
		tb.AddRowf(r.K, fmt.Sprintf("%.1f", r.H1Percent), fmt.Sprintf("%.1f", r.H2Percent),
			fmt.Sprintf("%+.1f", r.ExtraPercent), r.H2Funcs)
	}
	fmt.Println(tb.String())
	fmt.Println("the second history bit needs 8-bit selectors and a far larger gate")
	fmt.Println("mux; the paper's h=1 design point trades a few points for 3-bit")
	fmt.Println("selectors and eight gates per line.")
	fmt.Println()
	return nil
}

func cacheStudy(small bool) error {
	fmt.Println("== Storage independence: instruction cache in the fetch path ==")
	fmt.Println("(paper Section 8: \"the type of storage bears no impact\"; the cache")
	fmt.Println("stores the encoded image, so the refill bus benefits as well)")
	var tb stats.Table
	tb.AddRow("bench", "hit rate(%)", "core red(%)", "refill red(%)")
	for _, b := range imtrans.Benchmarks() {
		if small {
			b = smallScale(b)
		}
		cm, err := b.MeasureWithCache(imtrans.CacheConfig{}, imtrans.Config{BlockSize: 5})
		if err != nil {
			return err
		}
		tb.AddRowf(b.Name, fmt.Sprintf("%.1f", cm.HitRatePercent),
			fmt.Sprintf("%.1f", cm.CorePercent), fmt.Sprintf("%.1f", cm.RefillPercent))
	}
	fmt.Println(tb.String())
	return nil
}

// phasedSrc is a firmware with two sequential hot loops, each needing the
// whole of a tiny Transformation Table — the scenario where Section 7.1's
// per-hot-spot software reprogramming pays off.
const phasedSrc = `
	li   $t0, 60000
loopA:
	addu $t1, $t1, $t0
	sll  $t2, $t0, 2
	xor  $t3, $t1, $t2
	srl  $t4, $t3, 1
	or   $t5, $t4, $t1
	and  $t6, $t5, $t2
	nor  $t7, $t6, $t1
	addiu $t0, $t0, -1
	bgtz $t0, loopA
	li   $t0, 60000
loopB:
	subu $t6, $t0, $t1
	nor  $t7, $t6, $t2
	and  $t8, $t7, $t0
	addu $t9, $t8, $t6
	xor  $t1, $t9, $t7
	sll  $t2, $t1, 3
	srl  $t3, $t2, 2
	addiu $t0, $t0, -1
	bgtz $t0, loopB
	li $v0, 10
	syscall
`

func phased() error {
	fmt.Println("== Extension: per-hot-spot table reprogramming (Section 7.1) ==")
	fmt.Println("(two sequential hot loops, each needing the full 2-entry TT)")
	p, err := imtrans.Assemble(phasedSrc)
	if err != nil {
		return err
	}
	pm, err := imtrans.MeasurePhased(p, nil, imtrans.Config{BlockSize: 5, TTEntries: 2})
	if err != nil {
		return err
	}
	fmt.Printf("single deployment:   %.1f%% reduction (one loop left unencoded)\n", pm.SinglePercent)
	fmt.Printf("phased deployments:  %.1f%% reduction across %d phases\n", pm.Percent, pm.Phases)
	fmt.Printf("reprogramming cost:  %d runtime switch(es), %d table words uploaded\n",
		pm.Switches, pm.UploadWords)
	fmt.Println()
	return nil
}

func perLine(small bool) error {
	fmt.Println("== Per-bus-line breakdown (sor, k=5): the 'vertical' view ==")
	b, err := imtrans.BenchmarkByName("sor")
	if err != nil {
		return err
	}
	if small {
		b = smallScale(b)
	}
	ms, err := b.Measure(imtrans.Config{BlockSize: 5})
	if err != nil {
		return err
	}
	m := ms[0]
	fmt.Println("line  field        baseline   encoded   red(%)")
	for line := 31; line >= 0; line-- {
		field := "immediate"
		switch {
		case line >= 26:
			field = "opcode"
		case line >= 21:
			field = "rs"
		case line >= 16:
			field = "rt"
		case line >= 11:
			field = "rd/imm"
		}
		base, enc := m.PerLineBaseline[line], m.PerLineEncoded[line]
		red := 0.0
		if base > 0 {
			red = 100 * float64(base-enc) / float64(base)
		}
		fmt.Printf("%4d  %-9s %10d %9d   %6.1f\n", line, field, base, enc, red)
	}
	fmt.Println("\nloop code keeps opcode/register fields nearly constant vertically,")
	fmt.Println("so those lines encode almost perfectly; immediate lines carry the")
	fmt.Println("residual entropy.")
	fmt.Println()
	return nil
}

func schedStudy(small bool) error {
	fmt.Println("== Extension: transition-aware instruction scheduling ==")
	fmt.Println("(compiler-side reordering of independent instructions inside each")
	fmt.Println("basic block; stacks with the memory-side encoding)")
	var tb stats.Table
	tb.AddRow("bench", "sched-only red(%)", "encode-only red(%)", "sched+encode red(%)")
	for _, b := range imtrans.Benchmarks() {
		if small {
			b = smallScale(b)
		}
		p, err := b.Program()
		if err != nil {
			return err
		}
		p2, _, err := imtrans.RescheduleProgram(p)
		if err != nil {
			return err
		}
		base, err := b.Measure(imtrans.Config{BlockSize: 5})
		if err != nil {
			return err
		}
		// MeasureModified's capture checks the rescheduled program
		// against the kernel's golden reference.
		resched, err := b.MeasureModified(p2, imtrans.Config{BlockSize: 5})
		if err != nil {
			return fmt.Errorf("rescheduled program: %w", err)
		}
		// Scheduling-only reduction: the rescheduled program's baseline
		// stream vs the original baseline.
		schedOnly := 100 * (1 - float64(resched[0].Baseline)/float64(base[0].Baseline))
		combined := 100 * (1 - float64(resched[0].Encoded)/float64(base[0].Baseline))
		tb.AddRowf(b.Name, fmt.Sprintf("%.1f", schedOnly),
			fmt.Sprintf("%.1f", base[0].Percent), fmt.Sprintf("%.1f", combined))
	}
	fmt.Println(tb.String())
	return nil
}

func extras(small bool) error {
	fmt.Println("== Generality: kernels beyond the paper's suite ==")
	var tb stats.Table
	tb.AddRow("bench", "#TR(M)", "k=4 red(%)", "k=5 red(%)", "k=6 red(%)", "k=7 red(%)")
	for _, b := range imtrans.ExtraBenchmarks() {
		if small {
			switch b.Name {
			case "crc32":
				b = b.WithScale(4096, 2)
			case "iir":
				b = b.WithScale(2048, 3)
			case "conv2d":
				b = b.WithScale(24, 2)
			}
		}
		ms, err := b.Measure(imtrans.Config{BlockSize: 4}, imtrans.Config{BlockSize: 5},
			imtrans.Config{BlockSize: 6}, imtrans.Config{BlockSize: 7})
		if err != nil {
			return err
		}
		tb.AddRowf(b.Name, stats.Millions(ms[0].Baseline),
			fmt.Sprintf("%.1f", ms[0].Percent), fmt.Sprintf("%.1f", ms[1].Percent),
			fmt.Sprintf("%.1f", ms[2].Percent), fmt.Sprintf("%.1f", ms[3].Percent))
	}
	fmt.Println(tb.String())
	return nil
}

func addrBus(small bool) error {
	fmt.Println("== Related work context: the three SoC buses on the same runs ==")
	fmt.Println("(addresses are sequential -> generic Gray/T0 excel there; instruction")
	fmt.Println("words are static -> the paper's application-specific codes; data")
	fmt.Println("values are input-dependent -> only generic Bus-Invert applies)")
	var tb stats.Table
	tb.AddRow("bench",
		"addr: Gray(%)", "addr: T0(%)",
		"instr: app-specific(%)",
		"data: bus-invert(%)")
	for _, b := range imtrans.Benchmarks() {
		if small {
			b = smallScale(b)
		}
		ar, err := b.MeasureAddressBus()
		if err != nil {
			return err
		}
		ms, err := b.Measure(imtrans.Config{BlockSize: 5})
		if err != nil {
			return err
		}
		dr, err := b.MeasureDataBus()
		if err != nil {
			return err
		}
		tb.AddRowf(b.Name,
			fmt.Sprintf("%.1f", ar.GrayPercent), fmt.Sprintf("%.1f", ar.T0Percent),
			fmt.Sprintf("%.1f", ms[0].Percent),
			fmt.Sprintf("%.1f", dr.BusInvertPercent))
	}
	fmt.Println(tb.String())
	return nil
}

func ablations(small bool) error {
	b, err := imtrans.BenchmarkByName("mmul")
	if err != nil {
		return err
	}
	if small {
		b = smallScale(b)
	}

	fmt.Println("== Ablation: greedy vs exact chaining (mmul) ==")
	ms, err := b.Measure(imtrans.Config{BlockSize: 5}, imtrans.Config{BlockSize: 5, Exact: true})
	if err != nil {
		return err
	}
	fmt.Printf("greedy:   %.2f%% reduction\nexact-DP: %.2f%% reduction\n\n", ms[0].Percent, ms[1].Percent)

	fmt.Println("== Ablation: canonical 8 vs all 16 transformations (mmul) ==")
	ms, err = b.Measure(imtrans.Config{BlockSize: 5}, imtrans.Config{BlockSize: 5, AllFunctions: true})
	if err != nil {
		return err
	}
	fmt.Printf("8 funcs (3-bit selectors):  %.2f%% reduction, %d overhead bits\n",
		ms[0].Percent, ms[0].OverheadBits)
	fmt.Printf("16 funcs (4-bit selectors): %.2f%% reduction, %d overhead bits\n\n",
		ms[1].Percent, ms[1].OverheadBits)

	fmt.Println("== Ablation: transformation-table size sweep (mmul, k=5) ==")
	var cfgs []imtrans.Config
	for _, tt := range []int{2, 4, 8, 16, 32, 64} {
		cfgs = append(cfgs, imtrans.Config{BlockSize: 5, TTEntries: tt})
	}
	ms, err = b.Measure(cfgs...)
	if err != nil {
		return err
	}
	var tb stats.Table
	tb.AddRow("TT entries", "reduction(%)", "coverage(%)", "blocks", "overhead bits")
	for _, m := range ms {
		tb.AddRowf(m.Config.TTEntries, fmt.Sprintf("%.1f", m.Percent),
			fmt.Sprintf("%.1f", m.CoveragePercent), m.CoveredBlocks, m.OverheadBits)
	}
	fmt.Println(tb.String())

	fmt.Println("== Ablation: heat-greedy vs knapsack TT allocation (ej, tight budgets) ==")
	ej, err := imtrans.BenchmarkByName("ej")
	if err != nil {
		return err
	}
	if small {
		ej = smallScale(ej)
	}
	var tb3 stats.Table
	tb3.AddRow("TT entries", "greedy red(%)", "knapsack red(%)")
	for _, tt := range []int{2, 3, 4, 6, 8} {
		ms, err := ej.Measure(
			imtrans.Config{BlockSize: 5, TTEntries: tt},
			imtrans.Config{BlockSize: 5, TTEntries: tt, Knapsack: true},
		)
		if err != nil {
			return err
		}
		tb3.AddRowf(tt, fmt.Sprintf("%.1f", ms[0].Percent), fmt.Sprintf("%.1f", ms[1].Percent))
	}
	fmt.Println(tb3.String())

	fmt.Println("== Comparators: Bus-Invert and dictionary compression, same streams ==")
	var tb2 stats.Table
	tb2.AddRow("bench", "app-specific k=5 (%)", "bus-invert (%)", "dict-256 (%)", "dict table bits", "TT+BBIT bits")
	for _, bb := range imtrans.Benchmarks() {
		if small {
			bb = smallScale(bb)
		}
		m, err := bb.Measure(imtrans.Config{BlockSize: 5})
		if err != nil {
			return err
		}
		tb2.AddRowf(bb.Name, fmt.Sprintf("%.1f", m[0].Percent),
			fmt.Sprintf("%.1f", m[0].BusInvertPercent),
			fmt.Sprintf("%.1f", m[0].DictionaryPercent),
			m[0].DictionaryBits, m[0].OverheadBits)
	}
	fmt.Println(tb2.String())
	fmt.Println("(dictionary compression also needs a table lookup in the fetch path")
	fmt.Println("every cycle — the overhead the paper's Section 3 argues against)")
	return nil
}
