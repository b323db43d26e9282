package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"imtrans"
	"imtrans/internal/code"
	"imtrans/internal/core"
	"imtrans/internal/replay"
	"imtrans/internal/scheme"
)

// design-grid: design-space exploration over captures taken during
// set-up — a paper-config sweep and a cross-scheme compare grid, both over
// the six paper-scale kernels. Encode (core, code), replay and hw, the
// scheme fleet and the grid engines do all the work; the cpu does none.
// The set-up is the mirror image: cold Figure 6 grids (fig6.go), where
// capture does nearly all of the work.

// designInputs is one seeded design-space draw.
type designInputs struct {
	benches []imtrans.Benchmark
	cfgs    []imtrans.Config
	specs   []imtrans.SchemeSpec
}

// capacities are the (TT, BBIT) capacity pairs of the paper-config axis.
var capacities = [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 16}, {32, 32}, {64, 64}}

// paperSpace is the size of the paper-config space: k 2..8 × 6 capacity
// pairs × 8 or 16 functions × greedy or exact × heat or knapsack.
const paperSpace = 7 * 6 * 2 * 2 * 2

// paperConfig decodes an index of the paper-config space.
func paperConfig(i int) imtrans.Config {
	c := imtrans.Config{BlockSize: 2 + i%7}
	i /= 7
	c.AllFunctions, i = i%2 == 1, i/2
	c.Exact, i = i%2 == 1, i/2
	c.Knapsack, i = i%2 == 1, i/2
	c.TTEntries, c.BBITEntries = capacities[i][0], capacities[i][1]
	return c
}

// designDraw draws the seed's grids so that every seed does the same
// amount of work: the sweep takes every (k, functions, strategy) stratum
// at each of the six capacity pairs with a seeded selection policy (168
// configs), and the compare grid draws its knobs from fixed pools — the 12
// table sizes split between dictionary and codebook, two lwc specs per
// entries value — so only which spec gets which knob varies.
func designDraw(seed int64) designInputs {
	rng := rand.New(rand.NewSource(seed))
	in := designInputs{benches: imtrans.Benchmarks()}
	for k := 2; k <= 8; k++ {
		for _, all := range []bool{false, true} {
			for _, exact := range []bool{false, true} {
				for _, c := range capacities {
					in.cfgs = append(in.cfgs, imtrans.Config{
						BlockSize: k, TTEntries: c[0], BBITEntries: c[1],
						AllFunctions: all, Exact: exact, Knapsack: rng.Intn(2) == 1,
					})
				}
			}
		}
	}
	for _, i := range rng.Perm(paperSpace)[:6] {
		in.specs = append(in.specs, imtrans.SchemeSpec{Name: "paper", Config: paperConfig(i)})
	}
	for _, name := range []string{"businvert", "gray", "t0"} {
		for _, w := range rng.Perm(32)[:4] {
			in.specs = append(in.specs, imtrans.SchemeSpec{Name: name, Config: imtrans.Config{BusWidth: w + 1}})
		}
	}
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	for i, p := range rng.Perm(len(sizes)) {
		name := "dictionary"
		if i%2 == 1 {
			name = "codebook"
		}
		in.specs = append(in.specs, imtrans.SchemeSpec{Name: name, Entries: sizes[p]})
	}
	for _, entries := range []int{0, 16, 64, 256} {
		for _, lines := range rng.Perm(8)[:2] {
			in.specs = append(in.specs, imtrans.SchemeSpec{Name: "lwc", ExtraLines: 1 + lines, Entries: entries})
		}
	}
	return in
}

func (in designInputs) configLabels() []string {
	out := make([]string, len(in.cfgs))
	for i, c := range in.cfgs {
		out[i] = fmt.Sprintf("%+v", c)
	}
	return out
}

func (in designInputs) specLabels() []string {
	out := make([]string, len(in.specs))
	for i, sp := range in.specs {
		out[i] = fmt.Sprintf("%+v", sp)
	}
	return out
}

// designGrids runs the sweep and then the compare grid.
func designGrids(in designInputs, par int) (*imtrans.SweepResult, *imtrans.CompareResult, error) {
	sw, _, err := sweepGrid(in, par)
	if err != nil {
		return nil, nil, err
	}
	cmp, _, err := compareGrid(in, par)
	return sw, cmp, err
}

func sweepGrid(in designInputs, par int) (*imtrans.SweepResult, time.Duration, error) {
	start := time.Now()
	res, err := imtrans.SweepMeasureCtx(context.Background(), in.benches, in.cfgs, imtrans.SweepOptions{Parallelism: par})
	return res, time.Since(start), err
}

func compareGrid(in designInputs, par int) (*imtrans.CompareResult, time.Duration, error) {
	start := time.Now()
	res, err := imtrans.CompareMeasureCtx(context.Background(), in.benches, in.specs, imtrans.SweepOptions{Parallelism: par})
	return res, time.Since(start), err
}

// gridCounts flattens the outputs of one repetition: every sweep cell's
// (baseline, encoded) and every compare cell's (baseline, transitions).
func gridCounts(sw *imtrans.SweepResult, cmp *imtrans.CompareResult) []uint64 {
	var out []uint64
	for _, row := range sw.Measurements {
		for _, m := range row {
			out = append(out, m.Baseline, m.Encoded)
		}
	}
	for _, row := range cmp.Results {
		for _, m := range row {
			out = append(out, m.Baseline, m.Transitions)
		}
	}
	return out
}

// refCounts is gridCounts of the committed default-seed reference.
func refCounts(ref *designRef, fref *fig6Ref) []uint64 {
	var out []uint64
	for _, k := range ref.Kernels {
		for _, e := range k.Encoded {
			out = append(out, fref.kernel(k.Name).Baseline, e)
		}
	}
	for _, k := range ref.Kernels {
		for _, c := range k.Compare {
			out = append(out, c[0], c[1])
		}
	}
	return out
}

// checkDesign checks one repetition: every cell done, sweep cells on the
// Figure 6 reference's instruction and baseline counts, and all counts
// equal to want.
func checkDesign(r *run, fref *fig6Ref, want []uint64, sw *imtrans.SweepResult, cmp *imtrans.CompareResult) {
	cells := 0
	for bi, row := range sw.Measurements {
		k := fref.Kernels[bi]
		for ci, m := range row {
			cells++
			if !sw.Done[bi][ci] || m.Instructions != k.Instructions || m.Baseline != k.Baseline {
				r.fail("design sweep %s config %d: done=%v instructions %d baseline %d, reference %d %d",
					k.Name, ci, sw.Done[bi][ci], m.Instructions, m.Baseline, k.Instructions, k.Baseline)
			}
		}
	}
	for bi, row := range cmp.Done {
		for si, done := range row {
			cells++
			if !done {
				r.fail("design compare %s spec %d: cell not done", fref.Kernels[bi].Name, si)
			}
		}
	}
	r.res.Attempted += cells
	if got := gridCounts(sw, cmp); !slices.Equal(got, want) {
		r.fail("design grid: counts differ from the reference")
	}
}

func runDesign(o options) (*run, error) {
	fref, err := loadFig6Ref()
	if err != nil {
		return nil, err
	}
	in := designDraw(o.seed)
	fcfgs := fig6Configs(o.seed)
	r := newRun()

	// Set-up: cold Figure 6 grids, each clearing the capture cache and
	// taking the six paper-scale captures again, every cell checked. The
	// first runs before anything else; the rest are spread evenly through
	// the timed interval but left out of it, so that set-up is sampled
	// across the whole run rather than at one moment of the host. Each
	// grid's captures stay cached for the design grids after it.
	var setups []float64
	coldGrid := func() error {
		runtime.GC()
		res, d, err := fig6Grid(context.Background(), fcfgs, 0)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(d))
		checkFig6(r, fref, fcfgs, res)
		return nil
	}
	if err := coldGrid(); err != nil {
		return nil, err
	}
	runtime.GC()
	// A warm-up repetition fills the chain-table and fleet-table caches and
	// fixes the counts later repetitions must reproduce.
	sw, cmp, err := designGrids(in, 0)
	if err != nil {
		return nil, err
	}
	want := gridCounts(sw, cmp)
	if o.seed == defaultSeed {
		ref, err := loadDesignRef()
		if err != nil {
			return nil, err
		}
		if !slices.Equal(ref.Configs, in.configLabels()) || !slices.Equal(ref.Specs, in.specLabels()) {
			return nil, fmt.Errorf("the default-seed draw no longer matches testdata/design_ref.json")
		}
		want = refCounts(ref, fref)
	}
	checkDesign(r, fref, want, sw, cmp)

	if o.trace {
		return r, designTraced(o, r, in, fref, fcfgs, want)
	}

	var sweepWalls, cmpWalls []float64
	sweepCells := len(in.benches) * len(in.cfgs)
	cmpCells := len(in.benches) * len(in.specs)
	interval := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var outside time.Duration // spent in set-up grids
	var retaken uint64
	for {
		elapsed := time.Since(start) - outside
		if elapsed >= interval {
			break
		}
		if len(setups) < fig6Setups && elapsed >= time.Duration(len(setups))*interval/fig6Setups {
			t := time.Now()
			if err := coldGrid(); err != nil {
				return nil, err
			}
			outside += time.Since(t)
			continue
		}
		_, missesBefore := imtrans.CaptureCacheStats()
		// Every repetition starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		sw, ds, err := sweepGrid(in, 0)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		cmp, dc, err := compareGrid(in, 0)
		if err != nil {
			return nil, err
		}
		sweepWalls = append(sweepWalls, seconds(ds))
		cmpWalls = append(cmpWalls, seconds(dc))
		checkDesign(r, fref, want, sw, cmp)
		_, missesAfter := imtrans.CaptureCacheStats()
		retaken += missesAfter - missesBefore
	}
	if retaken != 0 {
		r.fail("design grid: %d captures were retaken during the timed grids", retaken)
	}
	r.detail["peak_rss_mb"] = peakRSSMB()
	if o.seed != defaultSeed {
		checkOracles(r, in, sw, cmp, seededSample(o.seed, in))
	}

	r.set("setup_s", "s", median(setups))
	r.set("grid_s", "s", slices.Min(sweepWalls))
	r.detail["fig6_s"] = median(setups)
	r.detail["setup_samples_s"] = setups
	r.detail["sweep_cells_per_s"] = float64(sweepCells*len(sweepWalls)) / sum(sweepWalls)
	r.detail["compare_cells_per_s"] = float64(cmpCells*len(cmpWalls)) / sum(cmpWalls)
	r.detail["sweep_cells"] = sweepCells
	r.detail["compare_cells"] = cmpCells
	r.detail["repetitions"] = len(sweepWalls)
	r.detail["compare_grid_p50_ms"] = 1000 * median(cmpWalls)
	r.detail["compare_grid_p99_ms"] = 1000 * percentile(cmpWalls, 99)
	return r, nil
}

// idleShare is the share of the grid workers' time not spent in a cell,
// from the cells' measured wall times.
func idleShare(cellNs [][]int64, workers uint64, wall time.Duration) float64 {
	if workers == 0 || wall <= 0 {
		return 0
	}
	var busy int64
	for _, row := range cellNs {
		for _, ns := range row {
			busy += ns
		}
	}
	return 1 - float64(busy)/(float64(workers)*float64(wall))
}

// designTraced reports the per-layer metrics: grid idle shares and the
// cell-time tail from an untraced parallel repetition, the parallel
// speedup from sweeps at GOMAXPROCS=1, then one untraced and one traced
// serial pass, each a cold Figure 6 grid followed by the design grids over
// its captures.
func designTraced(o options, r *run, in designInputs, fref *fig6Ref, fcfgs []imtrans.Config, want []uint64) error {
	ctx := context.Background()
	sw, dsw, err := sweepGrid(in, 0)
	if err != nil {
		return err
	}
	cmp, dcmp, err := compareGrid(in, 0)
	if err != nil {
		return err
	}
	checkDesign(r, fref, want, sw, cmp)
	var cellUs []float64
	for _, rows := range [][][]int64{sw.CellNs, cmp.CellNs} {
		for _, row := range rows {
			for _, ns := range row {
				cellUs = append(cellUs, float64(ns)/1e3)
			}
		}
	}
	sweepIdle := idleShare(sw.CellNs, sw.Counters.Get("sweep_grid_workers"), dsw)
	compareIdle := idleShare(cmp.CellNs, cmp.Counters.Get("compare_grid_workers"), dcmp)

	var par, one []float64
	for i := 0; i < 3; i++ {
		_, d, err := sweepGrid(in, 0)
		if err != nil {
			return err
		}
		par = append(par, seconds(d))
		prev := runtime.GOMAXPROCS(1)
		_, d, err = sweepGrid(in, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		one = append(one, seconds(d))
	}

	prev := imtrans.SetParallelism(1)
	defer imtrans.SetParallelism(prev)
	start := time.Now()
	res, _, err := fig6Grid(ctx, fcfgs, 1)
	if err != nil {
		return err
	}
	checkFig6(r, fref, fcfgs, res)
	_, misses := imtrans.CaptureCacheStats()
	if _, _, err := designGrids(in, 1); err != nil {
		return err
	}
	untraced := time.Since(start)
	r.res.Attempted++
	if _, after := imtrans.CaptureCacheStats(); after != misses {
		r.fail("traced design grid: the grids retook %d captures", after-misses)
	}

	tr := newTracer()
	start = time.Now()
	capSelf, err := fig6Traced(ctx, tr, r, fref, fcfgs)
	if err != nil {
		return err
	}
	setupWall := time.Since(start)
	setupEnd := len(tr.spans)
	gridStart := time.Now()
	tables := code.NewTableCache()
	seen := map[string]bool{}
	var cores []core.Config
	for _, c := range in.cfgs {
		cores = append(cores, scheme.CoreConfig(paperParams(c)))
	}
	for _, cc := range cores {
		if key := fmt.Sprintf("k=%d funcs=%v strategy=%v", cc.BlockSize, cc.Funcs, cc.Strategy); !seen[key] {
			seen[key] = true
			s := tr.begin("code.table", -1, key)
			_, err := tables.Get(cc.BlockSize, cc.Funcs, cc.Strategy)
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}
	var got []uint64
	var cmpCounts []uint64
	for _, b := range in.benches {
		cap, err := cachedCapture(b)
		if err != nil {
			return err
		}
		stores := memoStores(cores)
		for ci, c := range in.cfgs {
			id := fmt.Sprintf("%s %+v", b.Name, c)
			cell := tr.begin("cell", -1, id)
			pc, err := measurePaperTraced(ctx, tr, cell, id, cap, cores[ci], paperEnv{tables: tables, shared: stores[ci]})
			tr.end(cell)
			if err != nil {
				return err
			}
			noteCell(r, pc)
			got = append(got, cap.BaselineTotal, pc.encoded)
		}
		row, err := compareTraced(ctx, tr, r, b.Name, cap, in.specs)
		if err != nil {
			return err
		}
		cmpCounts = append(cmpCounts, row...)
	}
	gridWall := time.Since(gridStart)
	traced := time.Since(start)
	r.res.Attempted++
	if got = append(got, cmpCounts...); !slices.Equal(got, want) {
		r.fail("traced design grid: counts differ from the untraced grid")
	}

	layers := layerMetrics(r, tr)
	layers.set("replay.capture_misses", float64(misses))
	wall, idle := stridedWall(capSelf, runtime.GOMAXPROCS(0))
	layers.set("grid.capture_wall_s", wall)
	layers.set("grid.capture_idle_share", idle)
	layers.set("grid.sweep_idle_share", sweepIdle)
	layers.set("grid.compare_idle_share", compareIdle)
	layers.set("grid.cell_p99_us", percentile(cellUs, 99))
	layers.set("grid.parallel_speedup", median(one)/median(par))
	layers.set("trace.overhead_share", seconds(traced)/seconds(untraced)-1)
	setupSplit, gridSplit := split(tr, 0, setupEnd), split(tr, setupEnd, len(tr.spans))
	layers.set("trace.capture_share", seconds(setupSplit.capture)/seconds(setupWall))
	layers.set("trace.encode_replay_share", seconds(gridSplit.encode)/seconds(gridWall))
	r.detail["split_confirmed"] = setupSplit.capture >= setupWall*9/10 && gridSplit.cpu == 0 && 2*gridSplit.encode > gridWall
	r.detail["grid_cpu_s"] = seconds(gridSplit.cpu)
	r.detail["untraced_serial_s"] = seconds(untraced)
	r.detail["traced_serial_s"] = seconds(traced)
	r.detail["traced_setup_s"] = seconds(setupWall)
	r.detail["traced_grids_s"] = seconds(gridWall)
	return tr.write(filepath.Join(o.out, "spans", fmt.Sprintf("design-grid-seed%d.json", o.seed)))
}

// compareTraced measures one kernel's compare row the way CompareMeasureCtx
// does — one shared transition stream, paper cells grouped into memo
// stores by signature, equal fleet specs sharing a repeat-outcome store —
// with the stream build and each scheme's Measure in their own spans. It
// returns the row's (baseline, transitions) pairs.
func compareTraced(ctx context.Context, tr *tracer, r *run, name string, cap *replay.Capture, specs []imtrans.SchemeSpec) ([]uint64, error) {
	s := tr.begin("scheme.stream", -1, name)
	st := scheme.NewStream(cap)
	tr.end(s)
	var paperIdx []int
	var paperCores []core.Config
	fleetGroups := map[string][]int{}
	for si, sp := range specs {
		if sp.Name == "paper" {
			paperIdx = append(paperIdx, si)
			paperCores = append(paperCores, scheme.CoreConfig(specParams(sp)))
		} else {
			fleetGroups[sp.Label()] = append(fleetGroups[sp.Label()], si)
		}
	}
	shared := make([]*replay.MemoStore, len(specs))
	for i, store := range memoStores(paperCores) {
		shared[paperIdx[i]] = store
	}
	fleetShared := make([]*scheme.FleetMemo, len(specs))
	for _, idxs := range fleetGroups {
		if len(idxs) > 1 {
			m := scheme.NewFleetMemo()
			for _, si := range idxs {
				fleetShared[si] = m
			}
		}
	}
	var out []uint64
	for si, sp := range specs {
		sc, err := scheme.Get(sp.Name)
		if err != nil {
			return nil, err
		}
		w := &scheme.Workload{Cap: cap, Streaming: imtrans.StreamingReplay(), EncWorkers: 1,
			Shared: shared[si], Stream: st, FleetShared: fleetShared[si]}
		id := name + " " + sp.Label()
		cell := tr.begin("cell", -1, id)
		s := tr.begin("scheme."+sp.Name, cell, id)
		res, err := sc.Measure(ctx, w, specParams(sp))
		tr.end(s)
		tr.end(cell)
		if err != nil {
			return nil, err
		}
		if sp.Name != "paper" {
			r.tally.fleetMemoHits += res.MemoHits
		}
		out = append(out, res.Baseline, res.Transitions)
	}
	return out, nil
}
