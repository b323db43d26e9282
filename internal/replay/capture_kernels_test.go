package replay_test

import (
	"reflect"
	"testing"

	"imtrans"
	"imtrans/internal/asm"
	"imtrans/internal/cpu"
	"imtrans/internal/mem"
	"imtrans/internal/replay"
	"imtrans/internal/workloads"
)

// TestCaptureRunMatchesNaiveFold profiles all nine kernels through the
// facade, whose capture folds the CPU's straight-line spans with the
// Builder's loop-body cursor, and requires each trace to equal the naive
// fold of the same run fed fetch by fetch from OnFetch. The paper
// kernels run at the root tests' scales, the extra kernels at their test
// scales. The test sits here, outside the root package, because the
// naive fold is part of this package's tests; TraceText is the facade's
// view of the capture.
func TestCaptureRunMatchesNaiveFold(t *testing.T) {
	scales := map[string]workloads.Params{
		"mmul": {N: 24}, "sor": {N: 32, Iters: 2}, "ej": {N: 24, Iters: 4},
		"fft": {N: 64}, "tri": {N: 32, Iters: 10}, "lu": {N: 24},
	}
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		p, ok := scales[w.Name]
		if !ok {
			p = w.TestParams
		}
		p = w.Fill(p)
		prog, err := imtrans.Assemble(w.Source(p))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// The memory image the facade lays out: the data segment, then
		// the kernel's setup.
		image := mem.New()
		for i, b := range prog.Data {
			image.StoreByte(prog.DataBase+uint32(i), b)
		}
		if err := w.Setup(image, p); err != nil {
			t.Fatalf("%s: setup: %v", w.Name, err)
		}
		const pageWords = 1024
		setup := func(m imtrans.Memory) error {
			for _, page := range image.TouchedPages() {
				ws, err := image.LoadWords(page, pageWords)
				if err == nil {
					err = m.StoreWords(page, ws)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		text, err := imtrans.TraceText(prog, setup)
		if err != nil {
			t.Fatalf("%s: capture: %v", w.Name, err)
		}
		got, err := replay.ParseTrace(text)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}

		c, err := cpu.New(cpu.Program{Base: prog.TextBase, Words: prog.Text}, image)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		naive := replay.NewNaiveBuilder()
		c.OnFetch = func(pc, _ uint32) { naive.Add(int(pc-prog.TextBase) / 4) }
		if err := c.Run(); err != nil {
			t.Fatalf("%s: run: %v", w.Name, err)
		}
		if err := w.Check(c.Mem, p); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := naive.Trace(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v: captured trace (%d ops) differs from the naive fold (%d ops)",
				w.Name, p, got.NumOps(), want.NumOps())
		}
	}
}

// BenchmarkBuilderSpans times the fold on its own: the straight-line
// spans of mmul and lu at the root tests' scales are recorded once, and
// each iteration folds both span streams through fresh Builders, as a
// capture's OnSpan hook does.
func BenchmarkBuilderSpans(b *testing.B) {
	var streams [][][2]int
	spans := 0
	for _, k := range []struct {
		name string
		p    workloads.Params
	}{{"mmul", workloads.Params{N: 24}}, {"lu", workloads.Params{N: 24}}} {
		w, err := workloads.ByName(k.name)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Fill(k.p)
		obj, err := asm.Assemble(w.Source(p))
		if err != nil {
			b.Fatal(err)
		}
		m := mem.New()
		for i, v := range obj.Data {
			m.StoreByte(obj.DataBase+uint32(i), v)
		}
		if err := w.Setup(m, p); err != nil {
			b.Fatal(err)
		}
		c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
		if err != nil {
			b.Fatal(err)
		}
		var stream [][2]int
		c.OnSpan = func(first, last uint32) {
			stream = append(stream, [2]int{int(first-obj.TextBase) / 4, int(last-obj.TextBase) / 4})
		}
		if err := c.Run(); err != nil {
			b.Fatalf("%s: %v", k.name, err)
		}
		streams = append(streams, stream)
		spans += len(stream)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stream := range streams {
			fold := replay.NewBuilder()
			for _, s := range stream {
				fold.Span(s[0], s[1])
			}
			fold.Trace()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
}
