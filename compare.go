package imtrans

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"imtrans/internal/scheme"
	"imtrans/internal/stats"
)

// SchemeSpec selects one scheme column of a comparison sweep: a registered
// scheme name plus the knobs it reads. Config carries the paper TT/BBIT
// knobs (ignored by every other scheme); Entries and ExtraLines carry the
// related-work knobs. The zero knobs are each scheme's default operating
// point.
type SchemeSpec struct {
	Name       string
	Config     Config // paper knobs, read by the "paper" scheme
	Entries    int    // codebook / dictionary / lwc book capacity (0 = default)
	ExtraLines int    // lwc redundant bus lines (0 = default)
}

func (s SchemeSpec) params() scheme.Params {
	p := s.Config.schemeParams()
	p.Entries = s.Entries
	p.ExtraLines = s.ExtraLines
	return p
}

// Validate checks that the scheme exists and that its ConfigSpace
// accepts the knobs: each one it lists is 0 or inside the listed range,
// and every knob it does not list is 0.
func (s SchemeSpec) Validate() error {
	sc, err := scheme.Get(s.Name)
	if err != nil {
		return fmt.Errorf("imtrans: %w", err)
	}
	if err := scheme.Validate(sc, s.params()); err != nil {
		return fmt.Errorf("imtrans: %w", err)
	}
	return nil
}

// Label renders the spec as "name[knobs]" — the deterministic column
// identity comparison grids, checkpoint journals and reports use.
func (s SchemeSpec) Label() string {
	sc, err := scheme.Get(s.Name)
	if err != nil {
		return s.Name
	}
	return s.Name + "[" + sc.Spec(s.params()) + "]"
}

// SchemeKnob describes one tunable of a registered scheme (booleans span
// 0..1).
type SchemeKnob struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	Min  int    `json:"min"`
	Max  int    `json:"max"`
}

// SchemeInfo describes one registered encoding scheme.
type SchemeInfo struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Knobs       []SchemeKnob `json:"knobs"`
}

// Schemes lists every registered encoding scheme with its configuration
// space, in name order.
func Schemes() []SchemeInfo {
	all := scheme.All()
	out := make([]SchemeInfo, 0, len(all))
	for _, s := range all {
		info := SchemeInfo{Name: s.Name(), Description: s.Description()}
		for _, k := range s.ConfigSpace() {
			info.Knobs = append(info.Knobs, SchemeKnob(k))
		}
		out = append(out, info)
	}
	return out
}

// SchemeByName reports whether a scheme with that name is registered.
func SchemeByName(name string) bool {
	_, err := scheme.Get(name)
	return err == nil
}

// SchemeMeasurement is one scheme's measurement of one benchmark inside a
// comparison sweep. Baseline is the unencoded transition count of the bus
// the scheme drives — the instruction data bus for every scheme except
// the address-bus codes (gray, t0), whose Baseline is the binary address
// bus and whose Detail carries bus_addr=1 to mark it.
type SchemeMeasurement struct {
	Scheme string `json:"scheme"`
	Spec   string `json:"spec"`

	Instructions uint64  `json:"instructions"`
	Baseline     uint64  `json:"baseline"`
	Transitions  uint64  `json:"transitions"`
	Percent      float64 `json:"percent"`

	OverheadBits  int `json:"overhead_bits"`
	ExtraBusLines int `json:"extra_bus_lines"`

	EnergySavedOnChipJ  float64 `json:"energy_saved_onchip_j"`
	EnergySavedOffChipJ float64 `json:"energy_saved_offchip_j"`

	Detail map[string]float64 `json:"detail,omitempty"`
}

func schemeMeasurement(r *scheme.Result) SchemeMeasurement {
	return SchemeMeasurement{
		Scheme:              r.Scheme,
		Spec:                r.Spec,
		Instructions:        r.Instructions,
		Baseline:            r.Baseline,
		Transitions:         r.Transitions,
		Percent:             r.Percent,
		OverheadBits:        r.OverheadBits,
		ExtraBusLines:       r.ExtraBusLines,
		EnergySavedOnChipJ:  r.EnergySavedOnChipJ,
		EnergySavedOffChipJ: r.EnergySavedOffChipJ,
		Detail:              r.Detail,
	}
}

// CompareError is one isolated comparison failure, the cross-scheme
// analogue of SweepError.
type CompareError struct {
	Benchmark   string
	Scheme      string
	BenchIndex  int
	SchemeIndex int    // -1 when the whole benchmark failed to capture
	Stage       string // "capture", "measure" or "checkpoint"
	Err         error
}

// Error implements the error interface.
func (e *CompareError) Error() string {
	where := e.Benchmark
	if e.SchemeIndex >= 0 {
		where += " [" + e.Scheme + "]"
	}
	return fmt.Sprintf("imtrans: compare %s stage, %s: %v", e.Stage, where, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *CompareError) Unwrap() error { return e.Err }

// CompareResult is the outcome of a cross-scheme comparison sweep.
// Results is indexed [benchmark][scheme]; Done marks which cells hold a
// valid measurement. Rankings[bench] lists the completed scheme indices
// of that benchmark ordered by ascending transition count — the
// per-workload ranking the paper never ran.
type CompareResult struct {
	Benchmarks []string
	Schemes    []string // SchemeSpec labels, in spec order
	Results    [][]SchemeMeasurement
	Done       [][]bool
	Errors     []CompareError
	Rankings   [][]int

	Restored  int // cells restored from the checkpoint journal
	Completed int // cells measured by this run
	Cancelled int // cells abandoned by context cancellation

	// CellNs is the measured wall time of each cell in nanoseconds,
	// indexed [benchmark][scheme]; zero for cells that were restored,
	// failed or skipped. The compare benchmark report aggregates it into
	// per-cell and per-grid speedup numbers.
	CellNs [][]int64

	Counters stats.Counters
}

// Err returns the first isolated failure in grid order, or nil.
func (r *CompareResult) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	return &r.Errors[0]
}

// compareGrid derives the checkpoint identity of a comparison: a hash over
// every benchmark's capture salt and every scheme spec's full parameter
// set. Journals written for a different comparison are refused.
func compareGrid(benchmarks []Benchmark, specs []SchemeSpec) (grid string, benchNames, specNames []string) {
	h := sha256.New()
	fmt.Fprintf(h, "imtrans-compare-grid 1 %d %d\n", len(benchmarks), len(specs))
	benchNames = make([]string, len(benchmarks))
	for i, b := range benchmarks {
		benchNames[i] = b.Name
		fmt.Fprintf(h, "bench %s\n", b.captureSalt())
	}
	specNames = make([]string, len(specs))
	for i, s := range specs {
		specNames[i] = s.Label()
		fmt.Fprintf(h, "scheme %s %#v\n", s.Name, s.params())
	}
	return fmt.Sprintf("%x", h.Sum(nil)), benchNames, specNames
}

// CompareMeasureCtx evaluates every (benchmark, scheme spec) pair of a
// comparison grid under the same supervision contract as SweepMeasureCtx:
// one attempt per cell under a recover() guard, cooperative
// cancellation, work-stealing distribution, shared captures, and — with
// opts.Checkpoint set — bit-identical checkpoint-resume. Paper-scheme
// cells share block-outcome memo stores exactly as plain sweeps do.
//
// The returned error is non-nil only for an invalid spec list, setup
// failures and cancellation; isolated cell failures are reported in
// CompareResult.Errors in grid order.
func CompareMeasureCtx(ctx context.Context, benchmarks []Benchmark, specs []SchemeSpec, opts SweepOptions) (*CompareResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("imtrans: compare needs at least one scheme spec")
	}
	cols := make([]gridColumn[SchemeMeasurement], len(specs))
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		cols[i] = schemeColumn(sp)
	}
	nb, ns := len(benchmarks), len(specs)
	grid, benchNames, specNames := compareGrid(benchmarks, specs)
	run, err := runGrid(ctx, &gridSpec[SchemeMeasurement]{
		rows:     nb,
		capture:  benchCapture(benchmarks),
		cols:     cols,
		identity: func() (string, []string, []string) { return grid, benchNames, specNames },
	}, opts)
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		Benchmarks: benchNames,
		Schemes:    specNames,
		Results:    run.vals,
		Done:       run.done,
		Rankings:   make([][]int, nb),
		CellNs:     run.cellNs,
		Restored:   run.restored,
		Completed:  run.completed,
		Cancelled:  run.cancelled,
	}
	for _, e := range run.errs {
		ce := CompareError{
			Benchmark:   benchmarks[e.row].Name,
			BenchIndex:  e.row,
			SchemeIndex: e.col,
			Stage:       e.stage,
			Err:         e.err,
		}
		if e.col >= 0 {
			ce.Scheme = specNames[e.col]
		}
		res.Errors = append(res.Errors, ce)
	}
	// Per-workload ranking: completed schemes by ascending transition
	// count, spec order breaking ties.
	for bi := range res.Rankings {
		var rank []int
		for si := 0; si < ns; si++ {
			if res.Done[bi][si] {
				rank = append(rank, si)
			}
		}
		sort.SliceStable(rank, func(a, b int) bool {
			return res.Results[bi][rank[a]].Transitions < res.Results[bi][rank[b]].Transitions
		})
		res.Rankings[bi] = rank
	}
	var memoHits, streamShared uint64
	for _, t := range run.colTally {
		memoHits += t.memo.hits
		streamShared += uint64(t.streamShared)
	}
	c := &res.Counters
	run.addSupervision(c, "compare")
	c.Add("compare_memo_hits", memoHits)
	c.Add("compare_stream_shared", streamShared)
	c.Add("encode_candidates_built", uint64(run.candidatesBuilt))
	for si, sp := range specs {
		t := run.colTally[si]
		c.Add(fmt.Sprintf("compare_cells{scheme=%q}", sp.Name), uint64(nb))
		c.Add(fmt.Sprintf("compare_completed{scheme=%q}", sp.Name), uint64(t.completed))
		c.Add(fmt.Sprintf("compare_memo_hits{scheme=%q}", sp.Name), t.memo.hits)
		c.Add(fmt.Sprintf("compare_stream_shared{scheme=%q}", sp.Name), uint64(t.streamShared))
	}
	run.addCheckpoint(c)
	return res, run.interrupted("compare")
}

// schemeColumn is the grid column of a validated scheme spec. Paper
// columns share block memos by memo signature, exactly as sweep columns
// do; fleet columns share repeat outcomes with equal-label columns.
func schemeColumn(sp SchemeSpec) gridColumn[SchemeMeasurement] {
	sc, _ := scheme.Get(sp.Name)
	params := sp.params()
	share := gridShare{key: memoSig(sp.Config)}
	if sp.Name != "paper" {
		share = gridShare{key: sp.Label(), fleet: true}
	}
	return gridColumn[SchemeMeasurement]{
		measure: func(ctx context.Context, w *scheme.Workload) (SchemeMeasurement, cellMemo, error) {
			r, err := sc.Measure(ctx, w, params)
			if err != nil {
				return SchemeMeasurement{}, cellMemo{}, err
			}
			return schemeMeasurement(r), cellMemo{hits: r.MemoHits}, nil
		},
		share: share,
	}
}
