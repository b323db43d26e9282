// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed through the imtrans facades, the internal layer
// packages and the shipped imtransd daemon, checks every output against a
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// The workloads and metrics are described in METRICS.md. Run it through
// run.sh from the root of a checkout, which builds it and imtransd first:
//
//	bash perfbench/run.sh --workload design-grid --seed 3 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"imtrans/internal/buildinfo"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	rate     float64
	trace    bool
	imtransd string
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one workload returns: the result line plus details (sample
// counts, the values under their specified names, derived shares) printed
// beside it.
type run struct {
	res    result
	detail map[string]any
	tally  tally
}

func newRun() *run {
	return &run{res: result{Correct: true, Metrics: map[string]metric{}}, detail: map[string]any{}}
}

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed operation; the run stays incorrect.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runners maps each workload name to its runner.
var runners = map[string]func(o options) (*run, error){
	"design-grid": runDesign,
	"serve-mixed": runServe,
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: design-grid or serve-mixed")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured interval in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.Float64Var(&o.rate, "rate", serveRate, "serve-mixed synchronous requests per second (other rates locate saturation)")
	fs.StringVar(&o.imtransd, "imtransd", "", "path of the imtransd binary (serve-mixed)")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for temporary stores and span files")
	writeRef := fs.Bool("write-reference", false, "regenerate the committed reference counts in testdata/")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if o.rate <= 0 {
		fatalf("-rate must be positive")
	}
	if *writeRef {
		if err := writeReferences(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	runner, ok := runners[o.workload]
	if !ok {
		fatalf("unknown workload %q (want design-grid or serve-mixed)", o.workload)
	}
	r, err := runner(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if r.res.Attempted < 1 {
		fatalf("%s: no operation was attempted", o.workload)
	}
	r.detail["env"] = envStamp(o)
	r.detail["failed_share"] = float64(r.res.Failed) / float64(r.res.Attempted)
	emit(map[string]any{"detail": r.detail})
	emit(r.res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// envStamp is recorded beside every result: what ran, where, and how.
func envStamp(o options) map[string]any {
	env := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"build":      buildinfo.String("perfbench"),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	if o.workload == "serve-mixed" {
		env["daemon_flags"] = strings.Join(daemonFlags("<jobs>", "<store>"), " ")
		env["rate_rps"] = o.rate
	}
	return env
}

// peakRSSMB reports the peak resident set of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
