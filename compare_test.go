package imtrans

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// paperSchemeMeasurement reconstructs the SchemeMeasurement the registered
// paper backend must produce for a direct-path Measurement — every shared
// field, bit for bit.
func paperSchemeMeasurement(m Measurement) SchemeMeasurement {
	return SchemeMeasurement{
		Scheme:              "paper",
		Spec:                m.Config.String(),
		Instructions:        m.Instructions,
		Baseline:            m.Baseline,
		Transitions:         m.Encoded,
		Percent:             m.Percent,
		OverheadBits:        m.OverheadBits,
		EnergySavedOnChipJ:  m.EnergySavedOnChipJ,
		EnergySavedOffChipJ: m.EnergySavedOffChipJ,
		Detail: map[string]float64{
			"coverage_percent": m.CoveragePercent,
			"covered_blocks":   float64(m.CoveredBlocks),
			"tt_entries_used":  float64(m.TTEntriesUsed),
			"static_percent":   m.StaticPercent,
		},
	}
}

// TestCompareMatchesDirectPaper is the port-equivalence check of the
// pluggable-scheme refactor: for every paper kernel and every
// configuration variant, the registry-dispatched "paper" scheme must
// produce results identical — every shared field, bit for bit — to the
// direct measurement path.
func TestCompareMatchesDirectPaper(t *testing.T) {
	specs := make([]SchemeSpec, len(replayTestConfigs))
	for i, c := range replayTestConfigs {
		specs[i] = SchemeSpec{Name: "paper", Config: c}
	}
	for _, b := range Benchmarks() {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			direct, err := b.Measure(replayTestConfigs...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				want := paperSchemeMeasurement(direct[i])
				got := res.Results[0][i]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("config %v: registry path diverged\n got %+v\nwant %+v",
						replayTestConfigs[i], got, want)
				}
			}
		})
	}
}

// TestCompareMatchesCaptureBaselines checks that the registry-dispatched
// Bus-Invert and dictionary schemes reproduce, bit for bit, the
// comparator totals the capture's profiling run accumulated (which the
// direct path reports in every Measurement).
func TestCompareMatchesCaptureBaselines(t *testing.T) {
	specs := []SchemeSpec{{Name: "businvert"}, {Name: "dictionary"}}
	for _, b := range Benchmarks() {
		b := testScale(b)
		t.Run(b.Name, func(t *testing.T) {
			direct, err := b.Measure(Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			bi, dict := res.Results[0][0], res.Results[0][1]
			if bi.Transitions != direct[0].BusInvert {
				t.Errorf("businvert: %d transitions, capture recorded %d", bi.Transitions, direct[0].BusInvert)
			}
			if bi.Baseline != direct[0].Baseline || bi.Instructions != direct[0].Instructions {
				t.Errorf("businvert: baseline/instructions diverged from the direct path")
			}
			if dict.Transitions != direct[0].Dictionary {
				t.Errorf("dictionary: %d transitions, capture recorded %d", dict.Transitions, direct[0].Dictionary)
			}
			if dict.OverheadBits != direct[0].DictionaryBits {
				t.Errorf("dictionary: %d overhead bits, capture recorded %d", dict.OverheadBits, direct[0].DictionaryBits)
			}
		})
	}
}

// TestCompareRankingAndCounters runs a multi-scheme comparison on one
// kernel and checks the per-workload ranking discipline and the
// scheme-labelled counters.
func TestCompareRankingAndCounters(t *testing.T) {
	b := testScale(mustBench(t, "mmul"))
	specs := []SchemeSpec{
		{Name: "paper"},
		{Name: "businvert"},
		{Name: "codebook"},
		{Name: "lwc"},
	}
	res, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(specs) {
		t.Fatalf("completed %d cells, want %d", res.Completed, len(specs))
	}
	rank := res.Rankings[0]
	if len(rank) != len(specs) {
		t.Fatalf("ranking has %d entries, want %d", len(rank), len(specs))
	}
	for i := 1; i < len(rank); i++ {
		a, b := res.Results[0][rank[i-1]], res.Results[0][rank[i]]
		if a.Transitions > b.Transitions {
			t.Errorf("ranking not ascending: %s (%d) before %s (%d)",
				a.Scheme, a.Transitions, b.Scheme, b.Transitions)
		}
	}
	for _, sp := range specs {
		name := fmt.Sprintf("compare_completed{scheme=%q}", sp.Name)
		if got := res.Counters.Get(name); got != 1 {
			t.Errorf("counter %s = %d, want 1", name, got)
		}
	}
	if got := res.Counters.Get("compare_cells"); got != uint64(len(specs)) {
		t.Errorf("compare_cells = %d, want %d", got, len(specs))
	}
	// Every data-bus scheme shares the instruction-bus baseline.
	for _, si := range rank {
		m := res.Results[0][si]
		if m.Baseline != res.Results[0][0].Baseline {
			t.Errorf("%s: baseline %d diverged from paper's %d", m.Scheme, m.Baseline, res.Results[0][0].Baseline)
		}
		if m.Instructions == 0 || m.Transitions == 0 {
			t.Errorf("%s: empty measurement %+v", m.Scheme, m)
		}
	}
}

// TestCompareCheckpointResume interrupts a comparison by cancelling after
// the first completed cell, then resumes from the journal and checks the
// final grid is bit-identical to an uninterrupted run.
func TestCompareCheckpointResume(t *testing.T) {
	b := testScale(mustBench(t, "sor"))
	specs := []SchemeSpec{{Name: "paper"}, {Name: "businvert"}, {Name: "codebook"}, {Name: "dictionary"}}
	ref, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "compare.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	opts := SweepOptions{
		Parallelism: 1,
		Checkpoint:  ck,
		Progress: func(done, total int) {
			if done >= 2 {
				cancel()
			}
		},
	}
	partial, err := CompareMeasureCtx(ctx, []Benchmark{b}, specs, opts)
	cancel()
	if err == nil {
		t.Fatalf("interrupted compare returned no error (completed %d)", partial.Completed)
	}

	resumed, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Err(); err != nil {
		t.Fatal(err)
	}
	if resumed.Restored == 0 {
		t.Errorf("resume restored no cells")
	}
	if !reflect.DeepEqual(resumed.Results, ref.Results) {
		t.Errorf("resumed results diverged from uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Rankings, ref.Rankings) {
		t.Errorf("resumed rankings diverged from uninterrupted run")
	}
}

// TestCompareSpecValidation exercises the spec-level failure modes.
func TestCompareSpecValidation(t *testing.T) {
	b := mustBench(t, "mmul")
	if _, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, nil, SweepOptions{}); err == nil {
		t.Error("empty spec list accepted")
	}
	bad := []SchemeSpec{{Name: "nosuch"}}
	if _, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, bad, SweepOptions{}); err == nil {
		t.Error("unknown scheme accepted")
	} else if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unhelpful unknown-scheme error: %v", err)
	}
	// Cross-scheme knob bleed: paper knobs on a non-paper scheme.
	bleed := []SchemeSpec{{Name: "businvert", Config: Config{BlockSize: 7}}}
	if _, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, bleed, SweepOptions{}); err == nil {
		t.Error("paper knobs on businvert accepted")
	}
}

// TestSchemesListing checks the registry listing facade.
func TestSchemesListing(t *testing.T) {
	infos := Schemes()
	if len(infos) < 4 {
		t.Fatalf("only %d schemes registered", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		seen[info.Name] = true
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		if len(info.Knobs) == 0 {
			t.Errorf("%s: empty config space", info.Name)
		}
	}
	for _, want := range []string{"paper", "businvert", "codebook", "lwc", "dictionary", "gray", "t0"} {
		if !seen[want] {
			t.Errorf("scheme %s not registered", want)
		}
	}
	if !SchemeByName("paper") || SchemeByName("nosuch") {
		t.Errorf("SchemeByName misreports registration")
	}
}

// TestCompareNewSchemesBeatNothing sanity-checks the related-work
// encoders: their measurements must be internally consistent (transitions
// > 0, finite percentages) and the uncapped codebook must not exceed the
// baseline it encodes against on any kernel — mapping every word to a
// weight-ranked codeword can reshuffle transitions but the percent must
// stay finite and the arithmetic coherent.
func TestCompareNewSchemesBeatNothing(t *testing.T) {
	specs := []SchemeSpec{
		{Name: "codebook"},
		{Name: "codebook", Entries: 64},
		{Name: "lwc"},
		{Name: "lwc", Entries: 64, ExtraLines: 2},
	}
	for _, b := range Benchmarks()[:2] {
		b := testScale(b)
		res, err := CompareMeasureCtx(context.Background(), []Benchmark{b}, specs, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for si, m := range res.Results[0] {
			if m.Transitions == 0 {
				t.Errorf("%s %s: zero transitions", b.Name, res.Schemes[si])
			}
			if math.IsNaN(m.Percent) || math.IsInf(m.Percent, 0) {
				t.Errorf("%s %s: bad percent %v", b.Name, res.Schemes[si], m.Percent)
			}
			if got := 100 * (1 - float64(m.Transitions)/float64(m.Baseline)); math.Abs(got-m.Percent) > 1e-9 {
				t.Errorf("%s %s: percent %v inconsistent with counts (want %v)", b.Name, res.Schemes[si], m.Percent, got)
			}
		}
		// The capped variants must never beat their uncapped books: the
		// cap only forces escapes and flag-line traffic on top.
		if res.Results[0][1].Transitions < res.Results[0][0].Transitions {
			t.Errorf("%s: capped codebook beat the uncapped book", b.Name)
		}
	}
}

// TestCompareFaultRetryAndIsolation is the compare-grid half of the
// fault-campaign machinery `imtrans compare -inject` wires up: an
// injected fault must be isolated to its cell while the rest of the grid
// completes, bit-identical to a clean run. The retry half of the name is
// historical: grid cells are no longer retried, so only the
// permanent-fault case remains.
func TestCompareFaultRetryAndIsolation(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "mmul")), testScale(mustBench(t, "sor"))}
	specs := []SchemeSpec{{Name: "businvert"}, {Name: "dictionary"}}

	clean, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Err(); err != nil {
		t.Fatal(err)
	}

	t.Run("permanent", func(t *testing.T) {
		plan, err := ParseSweepFaultPlan("error@0,0")
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompareMeasureCtx(context.Background(), benches, specs,
			SweepOptions{FaultInject: plan.Injector()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err() == nil {
			t.Fatal("injected fault not surfaced")
		}
		if len(res.Errors) != 1 {
			t.Fatalf("%d isolated errors, want 1: %v", len(res.Errors), res.Errors)
		}
		if res.Done[0][0] {
			t.Error("poisoned cell reported done")
		}
		for bi := range benches {
			for si := range specs {
				if bi == 0 && si == 0 {
					continue
				}
				if !res.Done[bi][si] {
					t.Errorf("healthy cell (%d,%d) did not complete", bi, si)
				}
				if !reflect.DeepEqual(res.Results[bi][si], clean.Results[bi][si]) {
					t.Errorf("healthy cell (%d,%d) diverged from the clean run", bi, si)
				}
			}
		}
		if got := res.Counters.Get("compare_failed"); got != 1 {
			t.Errorf("compare_failed = %d, want 1", got)
		}
	})
}

// TestCompareFleetCountersAndCellNs pins the fleet replay telemetry on
// the six kernels × every registered scheme: every cell completes with a
// wall time, the shared transition stream is attached to more than one
// cell per benchmark (compare_stream_shared), and the repeat fast-forward
// plus derived-table cache serve hits (compare_memo_hits), globally and
// per scheme.
func TestCompareFleetCountersAndCellNs(t *testing.T) {
	benches := testSuite()
	var specs []SchemeSpec
	for _, info := range Schemes() {
		specs = append(specs, SchemeSpec{Name: info.Name})
	}
	if len(specs) < 7 {
		t.Fatalf("%d registered schemes, want the paper's and six related-work codes", len(specs))
	}
	res, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for bi := range benches {
		for si := range specs {
			if !res.Done[bi][si] || res.CellNs[bi][si] <= 0 {
				t.Errorf("cell (%d,%d): done %v, wall time %d", bi, si, res.Done[bi][si], res.CellNs[bi][si])
			}
		}
	}
	if got := res.Counters.Get("compare_memo_hits"); got == 0 {
		t.Error("compare_memo_hits is zero on a loopy grid")
	}
	// Per benchmark, every fleet cell after the first attaches to the
	// shared stream.
	if got := res.Counters.Get("compare_stream_shared"); got < uint64(len(benches)) {
		t.Errorf("compare_stream_shared = %d, want >= %d", got, len(benches))
	}
	var perScheme uint64
	for _, sp := range specs {
		perScheme += res.Counters.Get(fmt.Sprintf("compare_memo_hits{scheme=%q}", sp.Name))
	}
	if perScheme != res.Counters.Get("compare_memo_hits") {
		t.Errorf("per-scheme memo hits (%d) do not sum to the total (%d)",
			perScheme, res.Counters.Get("compare_memo_hits"))
	}
}

// TestCompareBatchToggleBitIdentical is the facade-level differential
// check of the fleet batch kernels: the same grid measured with them off
// and on must produce byte-identical measurements and rankings.
func TestCompareBatchToggleBitIdentical(t *testing.T) {
	benches := []Benchmark{testScale(mustBench(t, "ej"))}
	specs := []SchemeSpec{
		{Name: "businvert"}, {Name: "dictionary", Entries: 16},
		{Name: "gray"}, {Name: "t0"}, {Name: "codebook", Entries: 64}, {Name: "lwc"},
	}
	prev := SetFleetBatchReplay(false)
	defer SetFleetBatchReplay(prev)
	scalar, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	SetFleetBatchReplay(true)
	batch, err := CompareMeasureCtx(context.Background(), benches, specs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := scalar.Err(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.Results, batch.Results) {
		t.Error("batch kernels diverged from the scalar coders")
	}
	if !reflect.DeepEqual(scalar.Rankings, batch.Rankings) {
		t.Error("rankings diverged between replay modes")
	}
}
