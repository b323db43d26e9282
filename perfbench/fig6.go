package main

import (
	"context"
	"math/rand"
	"time"

	"imtrans"
	"imtrans/internal/core"
	"imtrans/internal/scheme"
)

// The cold Figure 6 grid — the six kernels at paper scale, block sizes
// 4..7, a 16-entry TT — through SweepMeasureCtx, with the capture cache
// cleared first so that it simulates, folds and compares all six kernels
// again. Capture does nearly all of its work and encode+replay almost
// none. It is design-grid's set-up: the grid takes the paper-scale
// captures the design grids then run over, so simulator and capture
// changes show in setup_s, and replay-only changes must not.

// fig6Configs returns the Figure 6 configurations in a seeded order; the
// seed changes only the order of the config axis, never the cells.
func fig6Configs(seed int64) []imtrans.Config {
	cfgs := []imtrans.Config{{BlockSize: 4}, {BlockSize: 5}, {BlockSize: 6}, {BlockSize: 7}}
	rand.New(rand.NewSource(seed)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}

// fig6Grid runs one cold Figure 6 grid and returns its wall time. Fresh
// Benchmark values make the grid assemble the kernels again too.
func fig6Grid(ctx context.Context, cfgs []imtrans.Config, par int) (*imtrans.SweepResult, time.Duration, error) {
	imtrans.ClearCaptureCache()
	bs := imtrans.Benchmarks()
	start := time.Now()
	res, err := imtrans.SweepMeasureCtx(ctx, bs, cfgs, imtrans.SweepOptions{Parallelism: par})
	return res, time.Since(start), err
}

// fig6Setups is how many cold Figure 6 grids design-grid's set-up runs.
const fig6Setups = 8

// checkFig6 compares every cell of one grid with the committed reference.
func checkFig6(r *run, ref *fig6Ref, cfgs []imtrans.Config, res *imtrans.SweepResult) {
	for bi, k := range ref.Kernels {
		for ci, c := range cfgs {
			r.res.Attempted++
			m := res.Measurements[bi][ci]
			want := k.encodedAt(ref, c.BlockSize)
			switch {
			case !res.Done[bi][ci]:
				r.fail("fig6 %s k=%d: cell not done", k.Name, c.BlockSize)
			case m.Instructions != k.Instructions || m.Baseline != k.Baseline || m.Encoded != want:
				r.fail("fig6 %s k=%d: got (%d, %d, %d), reference (%d, %d, %d)", k.Name, c.BlockSize,
					m.Instructions, m.Baseline, m.Encoded, k.Instructions, k.Baseline, want)
			}
		}
	}
	for _, e := range res.Errors {
		r.fail("fig6: %v", e.Error())
	}
}

// fig6Traced runs the Figure 6 grid serially with every layer in its own
// spans — assembly, the cpu run, trace folding, the comparators and
// cfg.Build for each kernel, then its four cells — checks it against the
// reference, and returns each kernel's capture time.
func fig6Traced(ctx context.Context, tr *tracer, r *run, ref *fig6Ref, cfgs []imtrans.Config) ([]float64, error) {
	cores := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		cores[i] = scheme.CoreConfig(paperParams(c))
	}
	var capSelf []float64
	for _, b := range imtrans.Benchmarks() {
		root := tr.begin("capture", -1, b.Name)
		s := tr.begin("asm.assemble", root, b.Name)
		p, err := b.Program()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		cap, err := captureTraced(tr, root, b, p)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		capSelf = append(capSelf, float64(tr.spans[root].End-tr.spans[root].Start)/1e9)
		k := ref.kernel(b.Name)
		r.res.Attempted++
		if cap.Instructions != k.Instructions || cap.BaselineTotal != k.Baseline {
			r.fail("traced fig6 %s: capture (%d, %d), reference (%d, %d)", b.Name, cap.Instructions, cap.BaselineTotal, k.Instructions, k.Baseline)
		}
		noteCapture(r, cap)
		stores := memoStores(cores)
		for ci, c := range cfgs {
			id := b.Name + " " + c.String()
			cell := tr.begin("cell", -1, id)
			pc, err := measurePaperTraced(ctx, tr, cell, id, cap, cores[ci], paperEnv{shared: stores[ci]})
			tr.end(cell)
			if err != nil {
				return nil, err
			}
			r.res.Attempted++
			if want := k.encodedAt(ref, c.BlockSize); pc.encoded != want {
				r.fail("traced fig6 %s k=%d: encoded %d, reference %d", b.Name, c.BlockSize, pc.encoded, want)
			}
			noteCell(r, pc)
		}
	}
	return capSelf, nil
}

// stridedWall models the capture phase of a grid from per-kernel capture
// times: runPoolCtx hands kernel i to worker i mod workers, so the phase
// lasts as long as the busiest worker's share, and the rest of the
// workers' time is idle.
func stridedWall(times []float64, workers int) (wall, idleShare float64) {
	workers = min(workers, len(times))
	if workers < 1 {
		return 0, 0
	}
	load := make([]float64, workers)
	for i, t := range times {
		load[i%workers] += t
	}
	for _, l := range load {
		wall = max(wall, l)
	}
	if wall == 0 {
		return 0, 0
	}
	return wall, 1 - sum(times)/(float64(workers)*wall)
}
