package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"imtrans"
)

// defaultSeed is the seed whose design-grid counts are committed in
// testdata/design_ref.json; other seeds are checked against the oracles
// on a seeded sample of cells.
const defaultSeed = 1

//go:embed testdata/fig6_ref.json
var fig6RefJSON []byte

//go:embed testdata/design_ref.json
var designRefJSON []byte

// fig6Ref holds the exact Figure 6 counts, produced by the two-run
// Benchmark.SimulateMeasure oracle.
type fig6Ref struct {
	BlockSizes []int        `json:"block_sizes"`
	Kernels    []fig6Kernel `json:"kernels"`
}

type fig6Kernel struct {
	Name         string   `json:"name"`
	Instructions uint64   `json:"instructions"`
	Baseline     uint64   `json:"baseline"`
	Encoded      []uint64 `json:"encoded"` // per block size
}

func (f *fig6Ref) kernel(name string) fig6Kernel {
	for _, k := range f.Kernels {
		if k.Name == name {
			return k
		}
	}
	return fig6Kernel{Name: name}
}

// encoded returns the reference count of one kernel at block size k.
func (k fig6Kernel) encodedAt(ref *fig6Ref, blockSize int) uint64 {
	for i, b := range ref.BlockSizes {
		if b == blockSize {
			return k.Encoded[i]
		}
	}
	return 0
}

func loadFig6Ref() (*fig6Ref, error) {
	var ref fig6Ref
	if err := json.Unmarshal(fig6RefJSON, &ref); err != nil {
		return nil, fmt.Errorf("fig6 reference: %w", err)
	}
	bs := imtrans.Benchmarks()
	if len(ref.Kernels) != len(bs) {
		return nil, fmt.Errorf("fig6 reference has %d kernels, the paper suite %d", len(ref.Kernels), len(bs))
	}
	for i, b := range bs {
		if ref.Kernels[i].Name != b.Name {
			return nil, fmt.Errorf("fig6 reference kernel %d is %s, the paper suite has %s", i, ref.Kernels[i].Name, b.Name)
		}
	}
	return &ref, nil
}

// designRef holds the default-seed design-grid counts: every sweep cell's
// encoded transitions and every compare cell's (baseline, transitions).
type designRef struct {
	Seed    int64          `json:"seed"`
	Configs []string       `json:"configs"`
	Specs   []string       `json:"specs"`
	Kernels []designKernel `json:"kernels"`
}

type designKernel struct {
	Name    string      `json:"name"`
	Encoded []uint64    `json:"encoded"` // per config
	Compare [][2]uint64 `json:"compare"` // per spec: baseline, transitions
}

func loadDesignRef() (*designRef, error) {
	var ref designRef
	if err := json.Unmarshal(designRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("design reference: %w", err)
	}
	return &ref, nil
}

// writeReferences regenerates both reference files from the oracles:
// Figure 6 through SimulateMeasure, and the default-seed design grid
// through the facade, cross-checked cell by cell against SimulateMeasure
// on a sample of sweep cells and every paper compare cell, and against the
// per-word coders on every other compare cell.
func writeReferences() error {
	ref := fig6Ref{BlockSizes: []int{4, 5, 6, 7}}
	var cfgs []imtrans.Config
	for _, k := range ref.BlockSizes {
		cfgs = append(cfgs, imtrans.Config{BlockSize: k})
	}
	for _, b := range imtrans.Benchmarks() {
		ms, err := b.SimulateMeasure(cfgs...)
		if err != nil {
			return err
		}
		k := fig6Kernel{Name: b.Name, Instructions: ms[0].Instructions, Baseline: ms[0].Baseline}
		for _, m := range ms {
			k.Encoded = append(k.Encoded, m.Encoded)
		}
		ref.Kernels = append(ref.Kernels, k)
		fmt.Fprintf(os.Stderr, "fig6 %s: %d instructions, baseline %d, encoded %v\n", b.Name, k.Instructions, k.Baseline, k.Encoded)
	}
	if err := writeJSON("fig6_ref.json", ref); err != nil {
		return err
	}

	in := designDraw(defaultSeed)
	sw, cmp, err := designGrids(in, 0)
	if err != nil {
		return err
	}
	r := newRun()
	checkOracles(r, in, sw, cmp, fullSample(in))
	if !r.res.Correct {
		return fmt.Errorf("design grid disagrees with its oracles in %d of %d cells", r.res.Failed, r.res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "design grid: %d oracle checks passed\n", r.res.Attempted)
	dref := designRef{Seed: defaultSeed, Configs: in.configLabels(), Specs: in.specLabels()}
	for bi, b := range in.benches {
		k := designKernel{Name: b.Name}
		for ci := range in.cfgs {
			k.Encoded = append(k.Encoded, sw.Measurements[bi][ci].Encoded)
		}
		for si := range in.specs {
			m := cmp.Results[bi][si]
			k.Compare = append(k.Compare, [2]uint64{m.Baseline, m.Transitions})
		}
		dref.Kernels = append(dref.Kernels, k)
	}
	return writeJSON("design_ref.json", dref)
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "testdata", name), append(b, '\n'), 0o644)
}
