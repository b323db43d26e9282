package main

import (
	"context"
	"fmt"

	"imtrans"
	"imtrans/internal/baseline"
	"imtrans/internal/cfg"
	"imtrans/internal/code"
	"imtrans/internal/core"
	"imtrans/internal/cpu"
	"imtrans/internal/hw"
	"imtrans/internal/mem"
	"imtrans/internal/replay"
	"imtrans/internal/scheme"
	"imtrans/internal/trace"
	"imtrans/internal/workloads"
)

// foldChunk is how many fetch indices the traced capture records before
// folding them, which bounds its buffer to 4 MB at any trace length.
const foldChunk = 1 << 20

// captureTraced profiles one benchmark the way the facade's capture does —
// one cpu run feeding the trace builder and the baseline and bus-invert
// buses, then cfg.Build and the dictionary comparator over the folded
// trace — with each layer in its own spans: the cpu run records fetch
// indices in chunks, and each chunk is then folded by replay.Builder and
// driven through the comparators. The capture it returns is the one the
// facade would have cached.
func captureTraced(tr *tracer, parent int, b imtrans.Benchmark, p *imtrans.Program) (*replay.Capture, error) {
	w, err := workloads.ByName(b.Name)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	for i, v := range p.Data {
		m.StoreByte(p.DataBase+uint32(i), v)
	}
	if err := w.Setup(m, w.Fill(workloads.Params{N: b.N, Iters: b.Iters})); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", b.Name, err)
	}
	c, err := cpu.New(cpu.Program{Base: p.TextBase, Words: p.Text}, m)
	if err != nil {
		return nil, err
	}
	base := p.TextBase
	buf := make([]int32, 0, foldChunk)
	c.OnFetch = func(pc, _ uint32) { buf = append(buf, int32(pc-base)/4) }
	builder := replay.NewBuilder()
	baseBus := trace.NewBus(32)
	busInv := baseline.NewBusInvert(32)
	for !c.Halted {
		s := tr.begin("cpu.run", parent, b.Name)
		for len(buf) < foldChunk && !c.Halted {
			if c.InstCount >= cpu.DefaultMaxInstructions {
				return nil, fmt.Errorf("%s: instruction cap exceeded", b.Name)
			}
			if err := c.Step(); err != nil {
				return nil, fmt.Errorf("%s: profiling run: %w", b.Name, err)
			}
		}
		tr.end(s)
		s = tr.begin("replay.fold", parent, b.Name)
		for _, idx := range buf {
			builder.Add(int(idx))
		}
		tr.end(s)
		s = tr.begin("capture.comparators", parent, b.Name)
		for _, idx := range buf {
			baseBus.Transfer(p.Text[idx])
			busInv.Transfer(p.Text[idx])
		}
		tr.end(s)
		buf = buf[:0]
	}
	profile := append([]uint64(nil), c.Profile()...)
	words := append([]uint32(nil), p.Text...)
	s := tr.begin("cfg.build", parent, b.Name)
	g, err := cfg.Build(base, words)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("replay.fold", parent, b.Name)
	ft := builder.Trace()
	tr.end(s)
	s = tr.begin("capture.comparators", parent, b.Name)
	dict := baseline.BuildDictionary(words, profile, 256)
	ft.Indices(func(idx int32) { dict.Transfer(words[idx]) })
	tr.end(s)
	return &replay.Capture{
		Base:            base,
		Words:           words,
		Graph:           g,
		Trace:           ft,
		Profile:         profile,
		Instructions:    c.InstCount,
		BaselineTotal:   baseBus.Total(),
		BaselinePerLine: baseBus.PerLine(),
		BusInvertTotal:  busInv.Total(),
		DictionaryTotal: dict.Transitions(),
		DictionaryBits:  dict.TableBits(),
	}, nil
}

// paperEnv is the execution environment of one traced paper-scheme cell:
// a serial encoder on a given chain-table cache and the memo store of the
// cell's signature group.
type paperEnv struct {
	tables *code.TableCache
	shared *replay.MemoStore
}

// paperCell is what one traced paper measurement yields.
type paperCell struct {
	encoded uint64
	plans   int
	rep     replay.Result
}

// measurePaperTraced runs the paper pipeline of scheme.MeasurePaper — plan
// the encoding, verify it statically, build the strict decoder, replay the
// trace — with each step in its own span.
func measurePaperTraced(ctx context.Context, tr *tracer, parent int, id string, cap *replay.Capture, cc core.Config, env paperEnv) (paperCell, error) {
	s := tr.begin("core.encode", parent, id)
	enc, err := core.EncodeCtxOpts(ctx, cap.Graph, cap.Profile, cc, core.EncodeOpts{Workers: 1, Tables: env.tables})
	tr.end(s)
	if err != nil {
		return paperCell{}, err
	}
	s = tr.begin("core.verify", parent, id)
	err = enc.Verify()
	tr.end(s)
	if err != nil {
		return paperCell{}, err
	}
	s = tr.begin("hw.decoder", parent, id)
	dec, err := hw.NewDecoder(enc)
	tr.end(s)
	if err != nil {
		return paperCell{}, err
	}
	dec.Strict = true
	s = tr.begin("replay.measure", parent, id)
	res, err := replay.MeasureOpts(ctx, cap, enc, dec, replay.Options{Streaming: imtrans.StreamingReplay(), Shared: env.shared})
	tr.end(s)
	if err != nil {
		return paperCell{}, err
	}
	return paperCell{encoded: res.Encoded, plans: len(enc.Plans), rep: res}, nil
}

// memoSig is the per-block encoding signature under which the grid
// engines let cells share block memos: block size, chain strategy, bus
// width and the transformation set.
func memoSig(cc core.Config) string {
	b := []byte{byte(cc.BlockSize), byte(cc.Strategy), byte(cc.BusWidth)}
	for _, f := range cc.Funcs {
		b = append(b, byte(f))
	}
	return string(b)
}

// memoStores gives the cells of one kernel the memo-store grouping the
// grid engines use: one shared store per per-block signature with two or
// more cells, nil for a signature only one cell has.
func memoStores(cores []core.Config) []*replay.MemoStore {
	groups := map[string][]int{}
	for i, cc := range cores {
		groups[memoSig(cc)] = append(groups[memoSig(cc)], i)
	}
	out := make([]*replay.MemoStore, len(cores))
	for _, idxs := range groups {
		if len(idxs) < 2 {
			continue
		}
		s := replay.NewMemoStore()
		for _, i := range idxs {
			out[i] = s
		}
	}
	return out
}

// paperParams maps a facade Config onto the scheme parameter union the
// way SchemeSpec does.
func paperParams(c imtrans.Config) scheme.Params {
	return scheme.Params{
		BlockSize:    c.BlockSize,
		TTEntries:    c.TTEntries,
		BBITEntries:  c.BBITEntries,
		AllFunctions: c.AllFunctions,
		Exact:        c.Exact,
		Knapsack:     c.Knapsack,
		BusWidth:     c.BusWidth,
	}
}

// specParams is SchemeSpec's parameter set.
func specParams(sp imtrans.SchemeSpec) scheme.Params {
	p := paperParams(sp.Config)
	p.Entries = sp.Entries
	p.ExtraLines = sp.ExtraLines
	return p
}

// cachedCapture returns the capture the facade cached for a benchmark,
// failing if the benchmark has not been captured in this process.
func cachedCapture(b imtrans.Benchmark) (*replay.Capture, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	salt := fmt.Sprintf("%s n=%d iters=%d", b.Name, b.N, b.Iters)
	key := replay.ProgramKey(p.TextBase, p.Text, p.DataBase, p.Data, salt)
	return replay.Shared.GetOrCapture(key, func() (*replay.Capture, error) {
		return nil, fmt.Errorf("%s: no cached capture (the facade's capture key changed?)", b.Name)
	})
}
