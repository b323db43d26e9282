package imtrans

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imtrans/internal/stats"
)

// TestRunPoolCtxFeedsFreeWorker: at two workers, an index that runs long
// does not hold up the indices after it, because each goes to whichever
// worker is free. Index 0 waits (at most five seconds) until every other
// index has run; a strided pool would queue 2, 4, ... behind it. Each
// index still runs exactly once.
func TestRunPoolCtxFeedsFreeWorker(t *testing.T) {
	const n = 7
	var ran [n]atomic.Int32
	var others atomic.Int32
	allRan := make(chan struct{})
	runPoolCtx(context.Background(), 2, n, func(i int) {
		ran[i].Add(1)
		if i != 0 {
			if others.Add(1) == n-1 {
				close(allRan)
			}
			return
		}
		select {
		case <-allRan:
		case <-time.After(5 * time.Second):
			t.Errorf("index 0 waited 5s for %d of the %d other indices", n-1-others.Load(), n-1)
		}
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times, want once", i, got)
		}
	}
}

// TestGridCheckpointIdentityPinned pins the journal identities of a fixed
// 2-kernel x 2-column sweep and comparison. A checkpoint journal records
// this hash, so a change to it strands every journal an older build left
// behind: a daemon upgraded mid-job could no longer resume its sweeps.
func TestGridCheckpointIdentityPinned(t *testing.T) {
	benches := []Benchmark{
		mustBench(t, "mmul").WithScale(24, 0),
		mustBench(t, "sor").WithScale(32, 2),
	}
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5, TTEntries: 4}}
	specs := []SchemeSpec{{Name: "paper", Config: Config{BlockSize: 5}}, {Name: "lwc", Entries: 64, ExtraLines: 2}}

	grid, benchNames, cfgNames := sweepGrid(benches, cfgs)
	if want := "55f3c282429a7f3a64f471b21b9f40b2262694169ba000c9a7e6fc825690ced6"; grid != want {
		t.Errorf("sweep grid identity = %s, want %s", grid, want)
	}
	if want := []string{"mmul", "sor"}; !reflect.DeepEqual(benchNames, want) {
		t.Errorf("sweep row names = %q, want %q", benchNames, want)
	}
	if want := []string{"k=4 TT=16", "k=5 TT=4"}; !reflect.DeepEqual(cfgNames, want) {
		t.Errorf("sweep column names = %q, want %q", cfgNames, want)
	}

	grid, benchNames, specNames := compareGrid(benches, specs)
	if want := "088e431377fc0bade017e2004a2aa37ac742e4e9d2a0f3c90e38e855d6742241"; grid != want {
		t.Errorf("compare grid identity = %s, want %s", grid, want)
	}
	if want := []string{"mmul", "sor"}; !reflect.DeepEqual(benchNames, want) {
		t.Errorf("compare row names = %q, want %q", benchNames, want)
	}
	if want := []string{"paper[k=5 TT=16]", "lwc[lines=34 entries=64]"}; !reflect.DeepEqual(specNames, want) {
		t.Errorf("compare column names = %q, want %q", specNames, want)
	}
}

// TestGridSupervisionParity runs one fault plan through a paper-config
// sweep and through the comparison of the equal paper specs: a cell that
// panics, a cell that errors, and a checkpointed run interrupted half-way
// and then resumed. Both facades must report the same grid: completion,
// isolated failures, transition counts and supervision counters.
func TestGridSupervisionParity(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "mmul")), testScale(mustBench(t, "sor"))}
	cfgs := []Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 5, TTEntries: 4}}
	specs := make([]SchemeSpec, len(cfgs))
	for i, c := range cfgs {
		specs[i] = SchemeSpec{Name: "paper", Config: c}
	}
	inject := SweepFaultPlan{PanicCells: [][2]int{{0, 1}}, ErrorCells: [][2]int{{1, 2}}}.Injector()
	dir := t.TempDir()

	// run drives one facade through the interrupted and the resumed pass
	// and returns each pass's outcome in facade-neutral form.
	type outcome struct {
		done     [][]bool
		counts   [][]uint64
		errs     []string
		counters map[string]uint64
	}
	run := func(name string, measure func(ctx context.Context, opts SweepOptions) (outcome, error)) [2]outcome {
		var out [2]outcome
		ck := filepath.Join(dir, name+".ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := SweepOptions{
			Parallelism: 1,
			Checkpoint:  ck,
			FaultInject: inject,
			Progress: func(done, total int) {
				if done >= 3 {
					cancel()
				}
			},
		}
		var err error
		out[0], err = measure(ctx, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted pass err = %v, want wrapped context.Canceled", name, err)
		}
		opts.Parallelism, opts.Progress = 2, nil
		out[1], err = measure(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: resumed pass: %v", name, err)
		}
		return out
	}
	supervision := []string{"cells", "completed", "failed", "skipped", "cancelled",
		"panics", "grid_workers"}
	counters := func(family string, get func(string) uint64) map[string]uint64 {
		m := make(map[string]uint64)
		for _, n := range supervision {
			m[n] = get(family + "_" + n)
		}
		for _, n := range []string{"checkpoint_restored", "checkpoint_recorded", "checkpoint_errors", "encode_candidates_built"} {
			m[n] = get(n)
		}
		return m
	}

	sweep := run("sweep", func(ctx context.Context, opts SweepOptions) (outcome, error) {
		res, err := SweepMeasureCtx(ctx, benches, cfgs, opts)
		if res == nil {
			t.Fatalf("sweep: no result: %v", err)
		}
		o := outcome{done: res.Done, counters: counters("sweep", res.Counters.Get)}
		for _, row := range res.Measurements {
			var counts []uint64
			for _, m := range row {
				counts = append(counts, m.Encoded)
			}
			o.counts = append(o.counts, counts)
		}
		for _, e := range res.Errors {
			o.errs = append(o.errs, fmt.Sprintf("%s (%d,%d)", e.Stage, e.BenchIndex, e.ConfigIndex))
		}
		return o, err
	})
	compare := run("compare", func(ctx context.Context, opts SweepOptions) (outcome, error) {
		res, err := CompareMeasureCtx(ctx, benches, specs, opts)
		if res == nil {
			t.Fatalf("compare: no result: %v", err)
		}
		o := outcome{done: res.Done, counters: counters("compare", res.Counters.Get)}
		for _, row := range res.Results {
			var counts []uint64
			for _, m := range row {
				counts = append(counts, m.Transitions)
			}
			o.counts = append(o.counts, counts)
		}
		for _, e := range res.Errors {
			o.errs = append(o.errs, fmt.Sprintf("%s (%d,%d)", e.Stage, e.BenchIndex, e.SchemeIndex))
		}
		return o, err
	})

	for pass, label := range []string{"interrupted", "resumed"} {
		s, c := sweep[pass], compare[pass]
		if !reflect.DeepEqual(s.done, c.done) {
			t.Errorf("%s: Done differs\n sweep   %v\n compare %v", label, s.done, c.done)
		}
		if !reflect.DeepEqual(s.counts, c.counts) {
			t.Errorf("%s: transition counts differ\n sweep   %v\n compare %v", label, s.counts, c.counts)
		}
		if !reflect.DeepEqual(s.errs, c.errs) {
			t.Errorf("%s: isolated errors differ\n sweep   %q\n compare %q", label, s.errs, c.errs)
		}
		if !reflect.DeepEqual(s.counters, c.counters) {
			t.Errorf("%s: counters differ\n sweep   %v\n compare %v", label, s.counters, c.counters)
		}
	}
	// The plan must actually have exercised every path it names.
	final := sweep[1]
	if want := []string{"measure (0,1)", "measure (1,2)"}; !reflect.DeepEqual(final.errs, want) {
		t.Errorf("resumed errors = %q, want %q", final.errs, want)
	}
	if final.counters["checkpoint_restored"] == 0 || sweep[0].counters["panics"] == 0 ||
		sweep[0].counters["cancelled"] == 0 {
		t.Errorf("fault plan did not exercise restore, panic and cancellation: %v then %v",
			sweep[0].counters, final.counters)
	}
	// The interrupted pass built both rows' k=4 lists and mmul's shared
	// k=5 list. The resumed pass built only sor's k=5 list: restored cells
	// build none, and an injected fault fires before its cell encodes.
	if got := [2]uint64{sweep[0].counters["encode_candidates_built"], final.counters["encode_candidates_built"]}; got != [2]uint64{3, 1} {
		t.Errorf("candidate lists built = %v (interrupted, resumed), want [3 1]", got)
	}
}

// TestCompareStreamSharedIndependentOfScheduling pins the definition of
// compare_stream_shared: every completed fleet cell beyond its row's
// lowest-index fleet column counts, whatever order the workers reached
// the row's stream in.
func TestCompareStreamSharedIndependentOfScheduling(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "mmul")), testScale(mustBench(t, "sor"))}
	specs := []SchemeSpec{{Name: "paper"}, {Name: "businvert"}, {Name: "dictionary"}, {Name: "gray"}, {Name: "t0"}}
	want := map[string]uint64{"paper": 0, "businvert": 0, "dictionary": 2, "gray": 2, "t0": 2}
	for _, par := range []int{1, 4} {
		res, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for name, n := range want {
			if got := res.Counters.Get(fmt.Sprintf("compare_stream_shared{scheme=%q}", name)); got != n {
				t.Errorf("parallelism %d: compare_stream_shared{scheme=%q} = %d, want %d", par, name, got, n)
			}
		}
		if got := res.Counters.Get("compare_stream_shared"); got != 6 {
			t.Errorf("parallelism %d: compare_stream_shared = %d, want 6", par, got)
		}
	}
}

// TestGridCounterTable checks the "Grid counters" table of
// docs/PERFORMANCE.md in both directions: every counter one sweep and one
// compare write, with its {scheme=...} label stripped, is in the table,
// and every name in the table's first column is written.
func TestGridCounterTable(t *testing.T) {
	doc, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Grid counters\n")
	if !ok {
		t.Fatal(`docs/PERFORMANCE.md has no "## Grid counters" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	name := regexp.MustCompile("`([^`]+)`")
	documented := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cols[1], -1) {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("the grid counter table lists no counters")
	}

	benches := []Benchmark{testScale(mustBench(t, "mmul"))}
	sweep, err := SweepMeasureCtx(context.Background(), benches, nil, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareMeasureCtx(context.Background(), benches,
		[]SchemeSpec{{Name: "paper"}, {Name: "businvert"}}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[string]bool)
	for _, c := range []*stats.Counters{&sweep.Counters, &cmp.Counters} {
		for _, n := range c.Names() {
			n, _, _ = strings.Cut(n, "{")
			written[n] = true
		}
	}
	for n := range written {
		if !documented[n] {
			t.Errorf("counter %s is written but missing from the table in docs/PERFORMANCE.md", n)
		}
	}
	for n := range documented {
		if !written[n] {
			t.Errorf("docs/PERFORMANCE.md lists %s, which neither a sweep nor a compare writes", n)
		}
	}
}
