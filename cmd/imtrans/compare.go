package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imtrans"
	"imtrans/internal/stats"
)

// compareReport is the machine-readable record of one cross-scheme
// comparison: every registered (or requested) encoding scheme measuring
// the same captured instruction streams, with per-workload rankings.
type compareReport struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`

	Benchmarks []compareBench `json:"benchmarks"`
	Schemes    []string       `json:"schemes"`

	// Grid is the flat cell list, one row per (benchmark, scheme).
	Grid []compareCell `json:"grid"`

	// Rankings[bench] lists completed scheme indices by ascending
	// transition count; Best names each benchmark's winner.
	Rankings [][]int  `json:"rankings"`
	Best     []string `json:"best"`

	Restored int             `json:"checkpoint_restored,omitempty"`
	Errors   []string        `json:"errors,omitempty"`
	Counters *stats.Counters `json:"counters"`
}

type compareBench struct {
	Name  string `json:"name"`
	N     int    `json:"n"`
	Iters int    `json:"iters"`
}

type compareCell struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	imtrans.SchemeMeasurement
	WallNs int64 `json:"wall_ns"`
}

// parseSchemeSpecs parses the -schemes list: comma-separated scheme
// names, each optionally knobbed as name:entries or name:entries:lines
// (for example codebook:64 or lwc:64:2). The paper scheme takes its
// knobs from the -k/-tt/... flags instead.
func parseSchemeSpecs(list string, paperCfg imtrans.Config) ([]imtrans.SchemeSpec, error) {
	var specs []imtrans.SchemeSpec
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		sp := imtrans.SchemeSpec{Name: parts[0]}
		if sp.Name == "paper" {
			sp.Config = paperCfg
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("scheme %q: want name[:entries[:extra_lines]]", item)
		}
		for i, p := range parts[1:] {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("scheme %q: knob %q is not an integer", item, p)
			}
			if i == 0 {
				sp.Entries = v
			} else {
				sp.ExtraLines = v
			}
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-schemes selected no schemes")
	}
	return specs, nil
}

// allSchemeNames is the default -schemes value: every registered scheme.
func allSchemeNames() string {
	infos := imtrans.Schemes()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return strings.Join(names, ",")
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	cfg := configFlags(fs)
	schemes := fs.String("schemes", allSchemeNames(), "comma-separated schemes to compare (name[:entries[:extra_lines]])")
	n := fs.Int("n", 0, "problem size (0 = paper default)")
	iters := fs.Int("iters", 0, "iterations/sweeps (0 = default)")
	jsonFlag := fs.Bool("json", false, "write a JSON report instead of the table")
	out := fs.String("o", "", "report path for -json (default stdout)")
	jobsN := fs.Int("j", 0, "comparison parallelism (0 = GOMAXPROCS)")
	checkpoint := fs.String("checkpoint", "", "journal the comparison grid here; an interrupted run resumes from it")
	timeout := fs.Duration("timeout", 0, "cancel the comparison after this long (0 = no deadline)")
	retries := fs.Int("retries", 1, "supervised attempts per grid cell")
	inject := fs.String("inject", "", "fault campaign against grid cells (panic@B,S;error@B,S;attempts=N)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := parseSchemeSpecs(*schemes, *cfg)
	if err != nil {
		return err
	}

	var benches []imtrans.Benchmark
	if fs.NArg() == 0 {
		benches = imtrans.Benchmarks()
	} else {
		for _, name := range fs.Args() {
			b, err := imtrans.BenchmarkByName(name)
			if err != nil {
				return err
			}
			benches = append(benches, b)
		}
	}
	for i := range benches {
		benches[i] = benches[i].WithScale(*n, *iters)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sweepOpts := imtrans.SweepOptions{
		Parallelism:    *jobsN,
		Checkpoint:     *checkpoint,
		Retry:          imtrans.RetryPolicy{MaxAttempts: *retries, BaseDelay: 50 * time.Millisecond, Jitter: 0.5},
		CheckpointSync: false,
	}
	if *inject != "" {
		plan, err := imtrans.ParseSweepFaultPlan(*inject)
		if err != nil {
			return err
		}
		sweepOpts.FaultInject = plan.Injector()
	}

	start := time.Now()
	res, err := imtrans.CompareMeasureCtx(ctx, benches, specs, sweepOpts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *jsonFlag {
		return writeCompareJSON(*out, benches, res)
	}
	printCompareTable(benches, res, elapsed)
	return res.Err()
}

func writeCompareJSON(path string, benches []imtrans.Benchmark, res *imtrans.CompareResult) error {
	rep := compareReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: int(res.Counters.Get("compare_grid_workers")),
		Schemes:     res.Schemes,
		Rankings:    res.Rankings,
		Restored:    res.Restored,
		Counters:    &res.Counters,
	}
	for _, b := range benches {
		rep.Benchmarks = append(rep.Benchmarks, compareBench{Name: b.Name, N: b.N, Iters: b.Iters})
	}
	for bi, name := range res.Benchmarks {
		for si, label := range res.Schemes {
			if !res.Done[bi][si] {
				continue
			}
			rep.Grid = append(rep.Grid, compareCell{
				Bench: name, Scheme: label,
				SchemeMeasurement: res.Results[bi][si],
				WallNs:            res.CellNs[bi][si],
			})
		}
		best := ""
		if len(res.Rankings[bi]) > 0 {
			best = res.Schemes[res.Rankings[bi][0]]
		}
		rep.Best = append(rep.Best, best)
	}
	for i := range res.Errors {
		rep.Errors = append(rep.Errors, res.Errors[i].Error())
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d benchmarks x %d schemes, %d cells measured\n",
		path, len(res.Benchmarks), len(res.Schemes), res.Completed+res.Restored)
	return res.Err()
}

func printCompareTable(benches []imtrans.Benchmark, res *imtrans.CompareResult, elapsed time.Duration) {
	for bi, name := range res.Benchmarks {
		fmt.Printf("%s (N=%d):\n", name, benches[bi].N)
		var tb stats.Table
		tb.AddRow("rank", "scheme", "baseline", "transitions", "reduction", "overhead bits", "extra lines")
		for rank, si := range res.Rankings[bi] {
			m := res.Results[bi][si]
			tb.AddRowf(rank+1, res.Schemes[si], m.Baseline, m.Transitions,
				fmt.Sprintf("%.2f%%", m.Percent), m.OverheadBits, m.ExtraBusLines)
		}
		fmt.Println(tb.String())
	}
	if res.Restored > 0 {
		fmt.Printf("restored %d cells from the checkpoint journal\n", res.Restored)
	}
	for i := range res.Errors {
		fmt.Printf("error: %v\n", res.Errors[i].Error())
	}
	fmt.Printf("%d cells in %v\n", res.Completed+res.Restored, elapsed.Round(time.Millisecond))
}

// cmdSchemes lists the registered encoding schemes and their knobs.
func cmdSchemes(args []string) error {
	fs := flag.NewFlagSet("schemes", flag.ExitOnError)
	jsonFlag := fs.Bool("json", false, "emit the listing as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	infos := imtrans.Schemes()
	if *jsonFlag {
		data, err := json.MarshalIndent(infos, "", "  ")
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	for _, info := range infos {
		fmt.Printf("%-11s %s\n", info.Name, info.Description)
		for _, k := range info.Knobs {
			fmt.Printf("    %-12s [%d..%d]  %s\n", k.Name, k.Min, k.Max, k.Doc)
		}
	}
	return nil
}
