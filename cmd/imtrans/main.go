// Command imtrans is the command-line front end to the instruction-memory
// power-encoding toolkit: it assembles MR32 programs, runs them on the
// functional simulator, plans power encodings, and measures the bus
// transitions saved.
//
// Usage:
//
//	imtrans asm  prog.s             # assemble, print a listing
//	imtrans run  prog.s             # simulate, print bus statistics
//	imtrans plan prog.s [-k 5]      # profile + encoding plan (TT/BBIT view)
//	imtrans measure prog.s [-k 5]   # full pipeline: reduction numbers
//	imtrans bench mmul [-k 5] [-n 100]  # same for a built-in benchmark
//
// The program is an MR32 assembly file; it must terminate via the exit
// syscall (li $v0, 10; syscall).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"imtrans"
	"imtrans/internal/buildinfo"
	"imtrans/internal/prof"
	"imtrans/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// run dispatches one command.
func run(cmd string, args []string) error {
	switch cmd {
	case "asm":
		return cmdAsm(args)
	case "run":
		return cmdRun(args)
	case "plan":
		return cmdPlan(args)
	case "measure":
		return cmdMeasure(args)
	case "bench":
		return cmdBench(args)
	case "compare":
		return cmdCompare(args)
	case "schemes":
		return cmdSchemes(args)
	case "encode":
		return cmdEncode(args)
	case "verify":
		return cmdVerify(args)
	case "rtl":
		return cmdRTL(args)
	case "trace":
		return cmdTrace(args)
	case "inject":
		return cmdInject(args)
	case "loadgen":
		return cmdLoadgen(args)
	case "job":
		return cmdJob(args)
	case "version", "-version", "--version":
		fmt.Println(buildinfo.String("imtrans"))
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// errorLine renders a failed command's error for stderr with exactly one
// "imtrans: " prefix; errors from the imtrans package already carry it.
func errorLine(err error) string {
	return "imtrans: " + strings.TrimPrefix(err.Error(), "imtrans: ")
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: imtrans <command> [flags]

commands:
  asm <file.s>        assemble and print a listing
  run <file.s>        simulate and print bus statistics
  plan <file.s>       profile and print the encoding plan
  measure <file.s>    measure encoded vs baseline transitions
  bench <name>        run the pipeline on a built-in benchmark
                      (mmul, sor, ej, fft, tri, lu; -n/-iters rescale it,
                      -cpuprofile/-memprofile profile the run)
  compare [name...]   measure every registered encoding scheme (paper
                      pipeline, bus-invert, dictionary, gray, T0, codebook,
                      limited-weight) on the same captured instruction
                      streams and rank them per benchmark (-schemes
                      name[:entries[:extra_lines]],... selects and knobs
                      the fleet; paper takes -k/-tt/...; -json/-o write a
                      report). The grid runs supervised: -checkpoint
                      journals each completed cell so an interrupted run
                      resumes where it stopped, -timeout bounds the wall
                      clock, -j sets the parallelism, and -inject
                      "panic@B,S;error@B,S" runs a fault campaign proving
                      failures stay isolated
  schemes             list the registered encoding schemes and their
                      tunable knobs (-json)
  encode <file.s>     profile, encode and write a deployment artifact
                      (-o out.imtd: encoded image + TT/BBIT contents)
  verify <file.s> <out.imtd>
                      re-run the program against a deployment artifact,
                      checking every restored instruction
  rtl <file.s>        emit synthesizable Verilog for the decoder
                      (-o decoder.v -tb decoder_tb.v -vectors N)
  trace <file.s>      print an annotated fetch-stream trace with the
                      decoder in the loop (-n fetches); -compressed prints
                      the whole trace in the validated one-line text form
  inject <file.s>     fault-injection campaign over the deployment: flips
                      bits in the image, TT/BBIT, history and artifact,
                      classifying each outcome (-bench <name> instead of a
                      file, -seed N, -faults per-site count)
  loadgen             drive a running imtransd (-url, -path, -rps, -duration,
                      -c workers, -body JSON|@file, -max5xx budget) and
                      report throughput plus p50/p90/p99 latency
  job <sub>           talk to imtransd's durable async job API (-url):
                      submit -body JSON|@file [-wait], status <id>,
                      wait <id> [-poll 500ms], result <id> [-o file],
                      cancel <id>, list
  version             print the build identity (module version, go version,
                      platform, VCS revision)`)
}

func loadProgram(path string) (*imtrans.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return imtrans.Assemble(string(src))
}

// loadProfiled assembles the source at path and profiles it with one
// bare run (see imtrans.ProfileProgram).
func loadProfiled(path string) (*imtrans.Program, []uint64, error) {
	p, err := loadProgram(path)
	if err != nil {
		return nil, nil, err
	}
	profile, err := imtrans.ProfileProgram(context.Background(), p, nil)
	return p, profile, err
}

// buildVerified plans the deployment of the source at path under c and
// checks it end to end before encode or rtl writes anything.
func buildVerified(path string, c imtrans.Config) (*imtrans.Program, *imtrans.Deployment, error) {
	p, profile, err := loadProfiled(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := imtrans.BuildDeployment(p, profile, c)
	if err != nil {
		return nil, nil, err
	}
	if err := d.Verify(p, nil); err != nil {
		return nil, nil, err
	}
	return p, d, nil
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, line := range p.Disassemble() {
		fmt.Println(line)
	}
	fmt.Printf("\n%d instructions, %d data bytes\n", p.Instructions(), len(p.Data))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	maxInstr := fs.Uint64("max", 0, "instruction cap (0 = default)")
	showStats := fs.Bool("stats", false, "print the dynamic instruction mix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := imtrans.NewMachine(p)
	if err != nil {
		return err
	}
	if *maxInstr > 0 {
		m.SetMaxInstructions(*maxInstr)
	}
	res, err := m.Run()
	if err != nil {
		return err
	}
	if res.Output != "" {
		fmt.Print(res.Output)
		fmt.Println()
	}
	fmt.Printf("instructions: %d\nexit code:    %d\nbus transitions: %d (%.2f per fetch)\n",
		res.Instructions, res.ExitCode, res.Transitions,
		float64(res.Transitions)/float64(res.Instructions))
	if *showStats {
		mix := res.Mix
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(res.Instructions) }
		fmt.Printf("mix: loads %.1f%%, stores %.1f%%, branches %.1f%% (%.1f%% taken), jumps %.1f%%, fp %.1f%%\n",
			pct(mix.Loads), pct(mix.Stores), pct(mix.Branches),
			100*float64(mix.BranchTaken)/float64(max64(mix.Branches, 1)),
			pct(mix.Jumps), pct(mix.FPOps))
		type kv struct {
			op string
			n  uint64
		}
		var ops []kv
		for op, n := range mix.PerOp {
			ops = append(ops, kv{op, n})
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].n != ops[j].n {
				return ops[i].n > ops[j].n
			}
			return ops[i].op < ops[j].op
		})
		if len(ops) > 10 {
			ops = ops[:10]
		}
		fmt.Println("top opcodes:")
		for _, o := range ops {
			fmt.Printf("  %-8s %10d  (%.1f%%)\n", o.op, o.n, pct(o.n))
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	cfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("plan wants one source file")
	}
	p, profile, err := loadProfiled(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := imtrans.EncodeProgram(p, profile, *cfg)
	if err != nil {
		return err
	}
	fmt.Printf("config %v: %d block(s) covered, %d TT entries, %.1f%% dynamic coverage\n",
		rep.Config, len(rep.Plans), rep.TTEntriesUsed, rep.CoveragePercent)
	fmt.Printf("static vertical-transition reduction in covered blocks: %.1f%%\n", rep.StaticPercent)
	fmt.Printf("decoder storage: %d bits (TT %d + BBIT %d), %d-bit selectors, %d gates/line\n",
		rep.OverheadBits, rep.TTBits, rep.BBITBits, rep.SelectorBits, rep.GatesPerLine)
	fmt.Printf("table upload: %d word writes before entering the hot spot\n\n", rep.UploadWords)
	var tb stats.Table
	tb.AddRow("start PC", "instrs", "heat", "TT[from:+n]", "tail CT", "static before>after")
	for _, pl := range rep.Plans {
		tb.AddRowf(fmt.Sprintf("%#08x", pl.StartPC), pl.Instructions, pl.Heat,
			fmt.Sprintf("%d:+%d", pl.TTStart, pl.TTEntries), pl.TailCT,
			fmt.Sprintf("%d>%d", pl.StaticBefore, pl.StaticAfter))
	}
	fmt.Println(tb.String())
	return nil
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	cfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("measure wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	ms, err := imtrans.ReplayMeasure(p, nil, *cfg)
	if err != nil {
		return err
	}
	printMeasurement(ms[0])
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	cfg := configFlags(fs)
	n := fs.Int("n", 0, "problem size (0 = paper default)")
	iters := fs.Int("iters", 0, "iterations/sweeps (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	runErr := func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("bench wants one benchmark name")
		}
		b, err := imtrans.BenchmarkByName(fs.Arg(0))
		if err != nil {
			return err
		}
		b = b.WithScale(*n, *iters)
		fmt.Printf("%s: %s (N=%d", b.Name, b.Description, b.N)
		if b.Iters > 1 {
			fmt.Printf(", iters=%d", b.Iters)
		}
		fmt.Println(")")
		ms, err := b.Measure(*cfg)
		if err != nil {
			return err
		}
		printMeasurement(ms[0])
		return nil
	}()
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	cfg := configFlags(fs)
	out := fs.String("o", "deployment.imtd", "output deployment artifact")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("encode wants one source file")
	}
	_, d, err := buildVerified(fs.Arg(0), *cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: k=%d, %d TT entries, %d covered blocks, %d-word image\n",
		*out, d.BlockSize, d.TTEntries(), d.CoveredBlocks(), len(d.Encoded))
	return f.Close()
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("verify wants a source file and a deployment artifact")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(1))
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := imtrans.LoadDeployment(f)
	if err != nil {
		return err
	}
	if err := d.Verify(p, nil); err != nil {
		return err
	}
	fmt.Println("deployment verified: every fetched instruction restored correctly")
	return nil
}

func cmdRTL(args []string) error {
	fs := flag.NewFlagSet("rtl", flag.ExitOnError)
	cfg := configFlags(fs)
	out := fs.String("o", "decoder.v", "output Verilog module")
	tb := fs.String("tb", "", "also write a self-checking testbench to this file")
	vectors := fs.Int("vectors", 1000, "testbench vector cap")
	module := fs.String("module", "imtrans_decoder", "Verilog module name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("rtl wants one source file")
	}
	p, d, err := buildVerified(fs.Arg(0), *cfg)
	if err != nil {
		return err
	}
	v, err := d.Verilog(*module)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, []byte(v), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: module %s, %d TT entries, %d BBIT entries\n",
		*out, *module, d.TTEntries(), d.CoveredBlocks())
	if *tb != "" {
		t, err := d.VerilogTestbench(p, nil, *module, *vectors)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*tb, []byte(t), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: self-checking testbench\n", *tb)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	cfg := configFlags(fs)
	n := fs.Int("n", 40, "fetches to show")
	compressed := fs.Bool("compressed", false, "print the full fetch trace in the canonical compressed text form instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace wants one source file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	if *compressed {
		text, err := imtrans.TraceText(p, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", text)
		return nil
	}
	entries, err := imtrans.TraceProgram(p, nil, *cfg, *n)
	if err != nil {
		return err
	}
	fmt.Println("      pc      original  bus-word  flips dec  instruction")
	for _, e := range entries {
		marker := "   "
		if e.DecoderActive {
			marker = " * "
		}
		fmt.Printf("%08x  %08x  %08x  %5d %s %s\n",
			e.PC, e.Original, e.Bus, e.Flips, marker, e.Instruction)
	}
	return nil
}

func configFlags(fs *flag.FlagSet) *imtrans.Config {
	cfg := &imtrans.Config{}
	fs.IntVar(&cfg.BlockSize, "k", 0, "block size (0 = 5)")
	fs.IntVar(&cfg.TTEntries, "tt", 0, "transformation-table entries (0 = 16)")
	fs.IntVar(&cfg.BBITEntries, "bbit", 0, "BBIT entries (0 = 16)")
	fs.BoolVar(&cfg.AllFunctions, "all16", false, "search all 16 transformations")
	fs.BoolVar(&cfg.Exact, "exact", false, "exact DP chaining instead of greedy")
	return cfg
}

func printMeasurement(m imtrans.Measurement) {
	fmt.Printf("config:            %v\n", m.Config)
	fmt.Printf("instructions:      %d\n", m.Instructions)
	fmt.Printf("baseline:          %d transitions\n", m.Baseline)
	fmt.Printf("encoded:           %d transitions\n", m.Encoded)
	fmt.Printf("reduction:         %.2f%%\n", m.Percent)
	fmt.Printf("bus-invert:        %d transitions (%.2f%%)\n", m.BusInvert, m.BusInvertPercent)
	fmt.Printf("dict-256:          %d transitions (%.2f%%; needs a %d-bit table lookup per fetch)\n",
		m.Dictionary, m.DictionaryPercent, m.DictionaryBits)
	fmt.Printf("coverage:          %.1f%% of fetches (%d blocks, %d TT entries)\n",
		m.CoveragePercent, m.CoveredBlocks, m.TTEntriesUsed)
	fmt.Printf("decoder storage:   %d bits\n", m.OverheadBits)
	fmt.Printf("energy saved:      %.4g J on-chip, %.4g J off-chip\n",
		m.EnergySavedOnChipJ, m.EnergySavedOffChipJ)
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	cfg := configFlags(fs)
	seed := fs.Int64("seed", 1, "campaign seed (same seed, same faults)")
	perSite := fs.Int("faults", 16, "faults injected per site")
	bench := fs.String("bench", "", "stress a built-in benchmark instead of a source file")
	maxInstr := fs.Uint64("max", 0, "per-run instruction cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *perSite <= 0 {
		*perSite = 16
	}

	var run func(fc imtrans.FaultCampaignConfig) (*imtrans.FaultReport, error)
	var name string
	if *bench != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("inject takes either -bench <name> or a source file, not both")
		}
		b, err := imtrans.BenchmarkByName(*bench)
		if err != nil {
			return err
		}
		name = b.Name
		run = func(fc imtrans.FaultCampaignConfig) (*imtrans.FaultReport, error) {
			rep, _, err := b.FaultCampaign(*cfg, fc)
			return rep, err
		}
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("inject wants one source file (or -bench <name>)")
		}
		p, profile, err := loadProfiled(fs.Arg(0))
		if err != nil {
			return err
		}
		name = fs.Arg(0)
		d, err := imtrans.BuildDeployment(p, profile, *cfg)
		if err != nil {
			return err
		}
		run = func(fc imtrans.FaultCampaignConfig) (*imtrans.FaultReport, error) {
			return d.FaultCampaign(p, nil, fc)
		}
	}

	fmt.Printf("%s: seed %d, %d faults per site\n\n", name, *seed, *perSite)
	fc := imtrans.FaultCampaignConfig{Seed: *seed, PerSite: *perSite, MaxInstructions: *maxInstr}
	unprot, err := run(fc)
	if err != nil {
		return err
	}
	fmt.Println(unprot)
	fc.Protected = true
	prot, err := run(fc)
	if err != nil {
		return err
	}
	fmt.Println(prot)
	if n := prot.SingleBitTableSDC(); n > 0 {
		return fmt.Errorf("%d single-bit TT/BBIT faults silently corrupted the protected stream", n)
	}
	fmt.Println("protected decoder: every single-bit TT/BBIT fault detected, zero silent corruption")
	return nil
}
